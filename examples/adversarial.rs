//! Figure 12's adversarial instance: a 3-way join whose output is empty but
//! where **every** binary join order without RPT must materialize ≈ N²/2
//! intermediate tuples. With RPT the transfer phase fully empties the
//! inputs and the join phase does (almost) nothing.
//!
//! ```sh
//! cargo run --example adversarial --release
//! ```

use rpt_core::{Database, JoinOrder, Mode, QueryOptions};
use rpt_workloads::adversarial;

fn main() -> rpt_common::Result<()> {
    println!("R(A,B): N rows, B = 1");
    println!("S(B,C): N/2 rows (1,2), N/2 rows (9,4)");
    println!("T(C,D): N rows, C = 4");
    println!("query:  R ⋈ S ⋈ T   (output is empty)\n");
    println!(
        "{:>6} {:>14} {:>14} {:>12}",
        "N", "(R⋈S)⋈T", "(S⋈T)⋈R", "RPT joins"
    );
    for n in [100usize, 500, 1000, 2000] {
        let w = adversarial(n);
        let mut db = Database::new();
        for t in &w.tables {
            db.register_table(t.clone());
        }
        let sql = &w.queries[0].sql;
        let rs_first = db.query(
            sql,
            &QueryOptions::new(Mode::Baseline).with_order(JoinOrder::LeftDeep(vec![0, 1, 2])),
        )?;
        let st_first = db.query(
            sql,
            &QueryOptions::new(Mode::Baseline).with_order(JoinOrder::LeftDeep(vec![1, 2, 0])),
        )?;
        let rpt = db.query(sql, &QueryOptions::new(Mode::RobustPredicateTransfer))?;
        println!(
            "{:>6} {:>14} {:>14} {:>12}",
            n,
            rs_first.metrics.join_output_rows,
            st_first.metrics.join_output_rows,
            rpt.metrics.join_output_rows,
        );
        assert_eq!(rs_first.rows[0][0].as_i64(), Some(0));
        assert_eq!(rpt.rows[0][0].as_i64(), Some(0));
    }
    println!("\nBoth baseline orders grow quadratically; RPT stays at ~zero —");
    println!("the instance generalizes to an exponential gap with more tables (§5.1.4).");
    Ok(())
}
