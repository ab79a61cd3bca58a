//! Predicate filter: refines the chunk's selection vector.

use super::{Operator, Resources};
use crate::context::ExecContext;
use crate::expr::{Expr, Predicate};
use rpt_common::{DataChunk, Result};

pub struct Filter {
    pred: Predicate,
}

impl Filter {
    pub fn new(pred: &Expr) -> Filter {
        Filter {
            pred: Predicate::new(pred),
        }
    }
}

impl Operator for Filter {
    fn execute(
        &self,
        mut chunk: DataChunk,
        _ctx: &ExecContext,
        _res: &Resources,
    ) -> Result<Option<DataChunk>> {
        let sel = self.pred.select(&chunk)?;
        // When the predicate keeps every logical row, skip the refinement
        // entirely instead of installing a full identity selection vector
        // (one `Vec<u32>` per chunk on selective-free predicates, plus the
        // indirection every downstream operator would then pay).
        if sel.len() < chunk.num_rows() {
            chunk.refine_selection(&sel);
        }
        Ok(Some(chunk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use rpt_common::{ScalarValue, Vector};

    fn run(chunk: DataChunk, pred: Expr) -> DataChunk {
        let ctx = ExecContext::new();
        let res = Resources::new(0, 0, 0);
        Filter::new(&pred)
            .execute(chunk, &ctx, &res)
            .unwrap()
            .unwrap()
    }

    /// A predicate that keeps every row must not install an identity
    /// selection vector (the downstream operators would pay the
    /// indirection on every column access).
    #[test]
    fn keep_all_skips_selection_entirely() {
        let chunk = DataChunk::new(vec![Vector::from_i64(vec![1, 2, 3])]);
        let keep_all = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(ScalarValue::Int64(0)));
        let out = run(chunk, keep_all);
        assert!(out.selection.is_none(), "identity selection installed");
        assert_eq!(out.num_rows(), 3);
    }

    /// An existing selection survives untouched when the refinement keeps
    /// every logical row, and still refines when it does not.
    #[test]
    fn existing_selection_preserved_or_refined() {
        let mut chunk = DataChunk::new(vec![Vector::from_i64(vec![1, 2, 3, 4])]);
        chunk.set_selection(vec![1, 3]); // values 2, 4
        let keep_all = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(ScalarValue::Int64(1)));
        let out = run(chunk.clone(), keep_all);
        assert_eq!(out.selection.as_deref(), Some(&[1u32, 3][..]));
        let keep_some = Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::lit(ScalarValue::Int64(3)));
        let out = run(chunk, keep_some);
        assert_eq!(out.selection.as_deref(), Some(&[3u32][..]));
        assert_eq!(out.num_rows(), 1);
    }
}
