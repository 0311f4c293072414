//! The benchmark's own checks on `result_digest` and the traced loop, on
//! a small configuration (scale 256, smoke limits, two simulations per
//! workload) so they run in seconds.

use gat_hetero::RunLimits;
use gat_simbench::trace::{check_fidelity, run_traced};
use gat_simbench::workload::{run_pass, Sim, Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn small(w: Workload, seed: u64) -> Vec<Sim> {
    w.sims(256, RunLimits::smoke(), seed)
        .into_iter()
        .take(2)
        .collect()
}

#[test]
fn digest_is_identical_across_repeats_at_one_seed() {
    let sims = small(Workload::ProposalM, DEFAULT_SEED);
    let a = run_pass(&sims, true);
    let b = run_pass(&sims, true);
    assert_eq!(
        a.ok_count(&sims),
        sims.len(),
        "every simulation meets its goals"
    );
    assert_eq!(a.digest(), b.digest());
}

#[test]
fn digest_differs_across_seeds() {
    let a = run_pass(&small(Workload::CpuMix, DEFAULT_SEED), true);
    let b = run_pass(&small(Workload::CpuMix, HELD_OUT_SEED), true);
    assert_ne!(a.digest(), b.digest());
}

#[test]
fn fast_forward_strict_and_traced_runs_agree_on_every_workload() {
    for w in Workload::ALL {
        let sims = small(w, DEFAULT_SEED);
        let ff = run_pass(&sims, true);
        let strict = run_pass(&sims, false);
        let (traced, profile) = run_traced(&sims);
        assert_eq!(ff.ok_count(&sims), sims.len(), "{}", w.name());
        assert_eq!(traced.ok_count(&sims), sims.len(), "{}", w.name());
        check_fidelity(&sims, &strict, &traced).unwrap();
        assert_eq!(
            ff.digest(),
            strict.digest(),
            "{}: fast-forward vs strict",
            w.name()
        );
        assert_eq!(
            ff.digest(),
            traced.digest(),
            "{}: fast-forward vs traced",
            w.name()
        );
        assert_eq!(profile.counts.cycles, strict.cycles(), "{}", w.name());
    }
}

#[test]
fn fidelity_check_rejects_a_diverging_traced_run() {
    let sims = small(Workload::GpuSolo, DEFAULT_SEED);
    let strict = run_pass(&sims, false);
    let (other, _) = run_traced(&small(Workload::GpuSolo, HELD_OUT_SEED));
    let err = check_fidelity(&sims, &strict, &other).unwrap_err();
    assert!(err.contains("diverged"), "{err}");
}
