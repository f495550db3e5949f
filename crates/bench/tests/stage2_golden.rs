//! Bit-for-bit pin of the Stage-II simulation grid.
//!
//! `tests/golden/stage2_cells.json` holds every `CellResult` of the two
//! grids of `cdsf_bench::stage2_golden_grids`. The JSON writer prints the
//! shortest digits that round-trip and the reader parses them correctly
//! rounded, so each `f64` is compared as `to_bits`: a change to the
//! executor, a technique or an availability process that moves any
//! makespan by one ulp fails here. Regenerate only on an intentional
//! change, with `cargo run --release -p cdsf-bench --bin golden_snapshot`.

use cdsf_bench::stage2_golden_grids;
use cdsf_core::CellResult;
use std::collections::BTreeMap;

fn golden() -> BTreeMap<String, Vec<CellResult>> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/stage2_cells.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("bad JSON in stage2_cells.json: {e:?}"))
}

#[test]
fn stage2_cells_match_golden_bit_for_bit() {
    let snap = golden();
    let grids = stage2_golden_grids();
    assert_eq!(snap.len(), grids.len(), "grid count drifted");
    for (grid, cells) in grids {
        let want = &snap[grid];
        assert_eq!(cells.len(), want.len(), "{grid}: cell count drifted");
        for (got, want) in cells.iter().zip(want) {
            let at = format!(
                "{grid} app {} case {} {}",
                want.app, want.case, want.technique
            );
            assert_eq!(
                (got.app, got.case, &got.technique, got.replicates),
                (want.app, want.case, &want.technique, want.replicates),
                "{at}: cell identity drifted"
            );
            for (field, g, w) in [
                ("mean_makespan", got.mean_makespan, want.mean_makespan),
                ("std_makespan", got.std_makespan, want.std_makespan),
                ("mean_chunks", got.mean_chunks, want.mean_chunks),
                (
                    "deadline_hit_rate",
                    got.deadline_hit_rate,
                    want.deadline_hit_rate,
                ),
            ] {
                assert_eq!(g.to_bits(), w.to_bits(), "{at}: {field} {g} vs golden {w}");
            }
            assert_eq!(
                got.meets_deadline, want.meets_deadline,
                "{at}: verdict drifted"
            );
        }
    }
}
