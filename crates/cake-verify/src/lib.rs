//! Standing verification harness for the CAKE reproduction — the oracle
//! layer that cross-checks what the machine *measures* against what the
//! paper *predicts*.
//!
//! Three pillars, one per module:
//!
//! * [`fuzz`] — a seeded **differential fuzzer**: random GEMM cases
//!   (degenerate 0/1 extents, strided/transposed views, row/col-major C,
//!   f32/f64, integer and real data) run through the CAKE executor, the
//!   GOTO loop nest, and the naive reference on identical inputs, compared
//!   per element with ULP bounds scaled by `K`, and shrunk to a minimal
//!   reproducer on failure. Every case also runs under every kernel tier
//!   the host supports, at all four dtypes (int8 at 0 ULP), over fixed
//!   block shapes that include `kc != mc`, blocks overhanging the problem,
//!   and blocks wide enough that each tier stores full register tiles
//!   straight into `C`.
//! * [`conformance`] — the **model-conformance oracle**: runs the executor
//!   with `traffic-counters` enabled and reconciles the measured element
//!   traffic with `cake_core::traffic` *exactly*, with the closed forms of
//!   `cake_core::model` (Eq. 4: external bandwidth independent of `p`)
//!   within stated tolerance, and with the `cake-sim` packet simulator —
//!   across `p ∈ {1, 2, 4, 8}`, demonstrating CAKE's DRAM traffic is
//!   `p`-invariant while GOTO's bandwidth demand grows linearly.
//! * [`interleave`] — a loom-style **deterministic interleaving harness**
//!   (in-tree, no external deps): a virtual-thread scheduler that drives
//!   the executor's panel-ring protocol (cooperative B packs, rotation
//!   barrier, LRU ring) through exhaustive/bounded interleavings at small
//!   sizes, proving no worker reads a panel before its pack completes and
//!   that snake reversals hit the ring. Seeded mutants (barriers removed,
//!   live-panel eviction) validate that the checker actually detects the
//!   failure modes it claims to.
//!
//! All three are wired into `cakectl verify` and `./ci.sh --verify`.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod conformance;
pub mod fuzz;
pub mod interleave;

/// One verification pillar's outcome, for CLI reporting.
#[derive(Debug)]
pub struct PillarOutcome {
    /// Pillar name (`fuzz`, `conformance`, `interleave`).
    pub name: &'static str,
    /// Human-readable summary lines.
    pub lines: Vec<String>,
}

/// Run all three pillars; `Err` carries the first failure's full report.
///
/// `cases` is the differential-fuzzer case count (the CI gate uses 256);
/// `seed` perturbs every generated case (defaults to `CAKE_TEST_SEED`).
pub fn verify_all(cases: u32, seed: Option<u64>) -> Result<Vec<PillarOutcome>, String> {
    let mut out = Vec::new();

    let cfg = fuzz::FuzzConfig {
        cases,
        seed: seed.unwrap_or_else(proptest::test_runner::env_seed),
    };
    let rep = fuzz::run(&cfg).map_err(|f| f.to_string())?;
    out.push(PillarOutcome {
        name: "fuzz",
        lines: rep.summary_lines(),
    });

    let conf = conformance::run()?;
    out.push(PillarOutcome {
        name: "conformance",
        lines: conf.summary_lines(),
    });

    let suite = interleave::run_default_suite()?;
    out.push(PillarOutcome {
        name: "interleave",
        lines: suite.summary_lines(),
    });

    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn verify_all_passes_at_reduced_case_count() {
        let outcomes = super::verify_all(24, Some(7)).expect("verification suite must pass");
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(!o.lines.is_empty(), "{} produced no summary", o.name);
        }
    }
}
