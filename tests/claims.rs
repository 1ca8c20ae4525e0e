//! Every paper claim, asserted: one test per row of
//! `pm2_bench::claims::CLAIMS`, so the rows run in parallel.

use pm2_bench::claims::{claim, CLAIMS};

macro_rules! rows {
    ($($id:ident),*) => {
        $(#[test] fn $id() {
            let out = (claim(stringify!($id)).expect("a row of the table").run)();
            if let Err(why) = out.holds {
                panic!("{}: {why}\n{}", stringify!($id), out.printed);
            }
        })*

        #[test]
        fn every_row_has_a_test() {
            let ids: Vec<&str> = CLAIMS.iter().map(|c| c.id).collect();
            assert_eq!(ids, [$(stringify!($id)),*]);
        }
    };
}

rows! {
    fig5, fig6, table1, bandwidth, abl_lock, abl_blocking, abl_aggreg, abl_adaptive, abl_timer,
    abl_numa, abl_threshold
}
