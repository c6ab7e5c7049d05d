//! Byte-identity pins for the regenerated experiment tables.
//!
//! Each entry pins the 64-bit FNV-1a digest of one `sas-bench run <id>`
//! stdout: full size for the quick experiments, `--smoke` size for the
//! three long simulations that have one. A refactor that moves any
//! number in a table, or its layout, fails here. Every pinned output is
//! identical at any worker count. Left out: f10 (several seconds at
//! smoke size in a debug build) and f11, f12 and b1, whose tables
//! carry wall-clock measurements.

use sas_bench::EXPERIMENTS;
use simkernel::obs;

/// `(run id, --smoke, digest of its stdout)`.
const PINS: &[(&str, bool, u64)] = &[
    ("t1", false, 0x15e3_f741_4ba5_e630),
    ("t2", false, 0x68af_b6bc_684e_52a6),
    ("t3", false, 0x72e8_faaa_a001_95a6),
    ("t4", false, 0xa5c9_7a1c_68f5_80b7),
    ("t5", false, 0xf13b_fdaa_ecca_99ea),
    ("t6", false, 0xe04b_dbc2_68a9_9e2a),
    ("f1", false, 0x8035_8b52_de83_43f6),
    ("f2", false, 0xe236_1d4a_d86c_e2ac),
    ("f3", false, 0x5145_2fab_1c54_1dff),
    ("f4", false, 0xbc19_1127_afca_31d9),
    ("f6", false, 0xbd49_6184_4d0c_7567),
    ("f7", false, 0x8d66_ae6f_22d9_1b75),
    ("a1", false, 0xb1a3_f25f_3b08_2eef),
    ("a2", false, 0x035d_cf76_df04_4439),
    ("a3", false, 0x44b8_6b21_4368_e663),
    ("f5", true, 0xbaa3_a2ab_ab9b_ff73),
    ("f8", true, 0x69cd_c0e4_df96_4fd9),
    ("f9", true, 0x6721_37a3_bbc9_9c4d),
];

#[test]
fn experiment_tables_are_pinned() {
    let mut moved = Vec::new();
    for &(id, smoke, pinned) in PINS {
        let experiment = EXPERIMENTS
            .iter()
            .find(|e| e.id == id)
            .unwrap_or_else(|| panic!("no experiment `{id}`"));
        let output = (experiment.run)(smoke);
        let digest = obs::fnv1a64(output.stdout.as_bytes());
        if digest != pinned {
            moved.push(format!(
                "{id} (smoke {smoke}): {digest:#018x}, pinned {pinned:#018x}"
            ));
        }
    }
    assert!(moved.is_empty(), "tables moved:\n{}", moved.join("\n"));
}
