//! Figure 12's adversarial instance: a 3-way join whose output is empty but
//! where **every** binary join order without RPT materializes ≈ N²/2
//! intermediate tuples.
//!
//! `R(A,B)`: N rows, all `B = 1`. `S(B,C)`: N/2 rows `(1, 2)` and N/2 rows
//! `(9, 4)`. `T(C,D)`: N rows, all `C = 4`. Then `R ⋈ S` = N²/2 (the b=1
//! half), `S ⋈ T` = N²/2 (the c=4 half), and the 3-way output is empty, so
//! both binary join orders blow up while the fully reduced instance is
//! empty. Relation indices follow FROM order: r = 0, s = 1, t = 2.

use crate::gen::TableGen;
use crate::workload::{QueryDef, Workload};

/// The Figure 12 instance for a given N, with its one query `"fig12"`.
pub fn adversarial(n: usize) -> Workload {
    let half = n / 2;
    let halves = |a: i64, b: i64| {
        let mut v = vec![a; half];
        v.resize(n, b);
        v
    };
    let ids = || (0..n as i64).collect();
    Workload {
        name: "Adversarial",
        tables: vec![
            TableGen::new("r")
                .int("a", ids())
                .int("b", vec![1; n])
                .build(),
            TableGen::new("s")
                .int("b", halves(1, 9))
                .int("c", halves(2, 4))
                .build(),
            TableGen::new("t")
                .int("c", vec![4; n])
                .int("d", ids())
                .build(),
        ],
        queries: vec![QueryDef::new(
            "fig12",
            "SELECT COUNT(*) AS cnt FROM r, s, t WHERE r.b = s.b AND s.c = t.c",
            2,
            false,
        )],
    }
}
