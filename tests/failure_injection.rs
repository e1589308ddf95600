//! Failure injection: corrupt inputs, adversarial results, and robustness
//! envelopes — across the decoder stack (below) and the cluster tier
//! (the `cluster_tier` module: a Byzantine wire peer forging RESULT
//! frames that arrive torn or bit-flipped).

use pooled_data::core::refine::{refine, RefineConfig};
use pooled_data::design::CsrDesign;
use pooled_data::prelude::*;
use pooled_data::threshold::{ThresholdChannel, ThresholdMnDecoder};

fn setup(n: usize, k: usize, m: usize, seed: u64) -> (Signal, CsrDesign, Vec<u64>) {
    let seeds = SeedSequence::new(seed);
    let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
    let design = CsrDesign::sample(n, m, n / 2, &seeds.child("design", 0));
    let y = execute_queries(&design, &sigma);
    (sigma, design, y)
}

/// A handful of corrupted query results degrade MN gracefully: the decoder
/// still recovers when the budget has slack, because each entry's score
/// averages over ~0.39·m queries.
#[test]
fn mn_tolerates_sparse_corruption() {
    let (n, k, m) = (1000usize, 8usize, 450usize);
    let mut ok = 0;
    for seed in 0..8u64 {
        let (sigma, design, mut y) = setup(n, k, m, 17_000 + seed);
        // Corrupt 2% of the results by ±k (worst-case magnitude for a
        // query's one-count).
        let mut rng = SeedSequence::new(seed).child("corrupt", 0).rng();
        for _ in 0..m / 50 {
            let q = rng.index(m);
            y[q] = y[q].saturating_add_signed(if rng.flip() { k as i64 } else { -(k as i64) });
        }
        let out = MnDecoder::new(k).decode(&design, &y);
        ok += (out.estimate == sigma) as u32;
    }
    assert!(ok >= 7, "only {ok}/8 under 2% corruption");
}

/// Total corruption is not survivable — and must not panic either.
#[test]
fn mn_survives_garbage_input_without_panicking() {
    let (_, design, _) = setup(500, 6, 100, 3);
    let garbage: Vec<u64> = (0..100).map(|q| (q * 7919) as u64 % 251).collect();
    let out = MnDecoder::new(6).decode(&design, &garbage);
    assert_eq!(out.estimate.weight(), 6, "weight contract holds even on garbage");
}

/// Refinement on corrupted results still never *increases* the residual,
/// and stays within its swap budget.
#[test]
fn refine_is_safe_under_corruption() {
    let (_, design, mut y) = setup(800, 9, 200, 4);
    for q in (0..200).step_by(17) {
        y[q] += 3;
    }
    let out = MnDecoder::new(9).decode(&design, &y);
    let cfg = RefineConfig { window: 16, max_swaps: 40 };
    let refined = refine(&design, &y, &out.scores, &out.estimate, &cfg);
    assert!(refined.final_residual <= refined.initial_residual);
    assert!(refined.swaps <= 40);
    // With inconsistent y there may be no consistent vector at all; the
    // refiner must terminate and say so rather than loop.
    if refined.final_residual > 0 {
        assert!(!refined.consistent);
    }
}

/// Flipped threshold bits: the score decoder degrades smoothly — a few
/// flipped bits leave recovery intact at a generous budget.
#[test]
fn threshold_decoder_tolerates_bit_flips() {
    let (n, k, t, m) = (800usize, 7usize, 2u64, 1800usize);
    let mut ok = 0;
    for seed in 0..8u64 {
        let seeds = SeedSequence::new(23_000 + seed);
        let sigma = Signal::random(n, k, &mut seeds.child("signal", 0).rng());
        let design =
            pooled_data::threshold::recommended_design(n, k, t, m, &seeds.child("design", 0));
        let mut bits = ThresholdChannel::new(t).execute(&design, &sigma);
        let mut rng = seeds.child("flips", 0).rng();
        for _ in 0..m / 100 {
            let q = rng.index(m);
            bits[q] ^= 1;
        }
        let out = ThresholdMnDecoder::new(k).decode(&design, &bits);
        ok += (out.estimate == sigma) as u32;
    }
    assert!(ok >= 7, "only {ok}/8 with 1% flipped bits");
}

/// Dimension mismatches fail loudly everywhere, not silently.
#[test]
fn dimension_mismatches_panic() {
    let (_, design, y) = setup(300, 5, 60, 5);
    let r1 = std::panic::catch_unwind(|| {
        let _ = MnDecoder::new(5).decode(&design, &y[..59]);
    });
    assert!(r1.is_err(), "short y must panic");
    let sigma_wrong = Signal::from_support(301, vec![0]);
    let r2 = std::panic::catch_unwind(|| {
        let _ = execute_queries(&design, &sigma_wrong);
    });
    assert!(r2.is_err(), "wrong-n signal must panic");
}

/// k mis-specification: decoding with k′ > k yields a weight-k′ estimate
/// that still contains (nearly) the whole support — capturing all of it is
/// harder than ranking it first (the subset-select effect), so the
/// contract is "no more than one straggler" at a generous budget.
#[test]
fn overestimated_k_still_captures_support() {
    let mut worst = 8usize;
    for seed in 0..6u64 {
        let (sigma, design, y) = setup(1000, 8, 600, 6 + seed);
        let out = MnDecoder::new(16).decode(&design, &y); // k′ = 2k
        assert_eq!(out.estimate.weight(), 16);
        let captured = sigma.support().iter().filter(|&&i| out.estimate.is_one(i)).count();
        worst = worst.min(captured);
    }
    assert!(worst >= 7, "a top-2k list lost {} true ones", 8 - worst);
}

/// Cluster-tier failure injection: a **Byzantine node** on the wire.
///
/// The adversary here is worse than a dead peer: it answers — with a
/// forged RESULT frame carrying wrong digests — but the frame arrives
/// damaged (truncated mid-frame, or with a flipped payload bit). The
/// contract under test: the checksum/length layer rejects the frame,
/// the connection fails closed, the router fails the node over, and
/// the job is **re-served correctly on the standby** — never silently
/// miscounted from the forged bytes.
mod cluster_tier {
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener};

    use pooled_data::engine::cluster::{LocalNode, Membership, NodeHandle, RemoteNode, Router};
    use pooled_data::engine::engine::EngineConfig;
    use pooled_data::engine::job::{DecoderKind, JobResult, JobSpec};
    use pooled_data::engine::traffic::LoadProfile;
    use pooled_data::engine::transport::frame::{encode_frame, Frame, FrameAssembler, HEADER_LEN};

    #[derive(Clone, Copy)]
    enum Sabotage {
        /// Flip one payload byte after the checksum is computed: the
        /// frame parses as damaged, not as a different valid result.
        BitFlip,
        /// Send only a prefix of the frame, then slam the connection.
        Truncate,
    }

    /// A server that forges a plausible-but-wrong RESULT for every
    /// SUBMIT it reads, delivered via `mode`'s damage.
    fn byzantine_server(mode: Sabotage) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut asm = FrameAssembler::new();
            let mut chunk = [0u8; 4096];
            loop {
                let frame = match asm.next_frame() {
                    Ok(Some((frame, _))) => frame,
                    Ok(None) => match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => {
                            asm.extend(&chunk[..n]);
                            continue;
                        }
                    },
                    Err(_) => return,
                };
                match frame {
                    Frame::Submit(spec) => {
                        // Wrong on purpose: if these bytes ever reach a
                        // fingerprint, the test's comparison catches it.
                        let forged = JobResult {
                            id: spec.id,
                            decoder: spec.decoder,
                            exact: true,
                            hits: spec.k as u32,
                            weight: spec.k as u32,
                            support_digest: 0xBAD0_BAD0_BAD0_BAD0,
                            score_digest: 0xBAD1_BAD1_BAD1_BAD1,
                            decode_micros: 1,
                            queue_micros: 1,
                            total_micros: 2,
                            worker: 0,
                        };
                        let mut buf = Vec::new();
                        encode_frame(&Frame::Result(forged), &mut buf);
                        match mode {
                            Sabotage::BitFlip => {
                                buf[HEADER_LEN + 8] ^= 0x40;
                                if stream.write_all(&buf).is_err() {
                                    return;
                                }
                                let _ = stream.flush();
                            }
                            Sabotage::Truncate => {
                                let _ = stream.write_all(&buf[..buf.len() - 5]);
                                let _ = stream.flush();
                                let _ = stream.shutdown(Shutdown::Both);
                                return;
                            }
                        }
                    }
                    // PREWARM and anything else: ignore and keep reading.
                    _ => continue,
                }
            }
        });
        (addr, handle)
    }

    fn node_config() -> EngineConfig {
        EngineConfig {
            workers: 1,
            queue_capacity: 8,
            results_capacity: 8,
            design_cache_capacity: 8,
            batch_window: 1,
        }
    }

    /// A spec whose `DesignKey` the 2-node membership `[0, 1]` routes
    /// to node 0 — the Byzantine one.
    fn spec_owned_by_evil_node() -> JobSpec {
        let membership = Membership::new(vec![0, 1]);
        let p = LoadProfile {
            distinct_designs: 6,
            decoders: vec![DecoderKind::Mn],
            query_cost: None,
            ..LoadProfile::default_mix(300, 5, 180, 909)
        };
        p.specs(64)
            .into_iter()
            .find(|s| membership.owner(&s.design_key()) == 0)
            .expect("some key must land on node 0")
    }

    fn forged_frames_are_rejected_and_the_job_reserved(mode: Sabotage) {
        let spec = spec_owned_by_evil_node();
        // Ground truth from an honest bare node.
        let truth = {
            let node = LocalNode::start(node_config());
            node.submit(spec).expect("submit");
            let event = node.recv().expect("one result");
            let pooled_data::engine::cluster::NodeEvent::Result(r) = event else {
                panic!("expected a result event");
            };
            Box::new(node).shutdown();
            r.fingerprint()
        };

        let (addr, server) = byzantine_server(mode);
        let evil: Box<dyn NodeHandle> =
            Box::new(RemoteNode::connect(addr).expect("connect loopback"));
        let honest: Box<dyn NodeHandle> = Box::new(LocalNode::start(node_config()));
        let mut router = Router::new(vec![(0, evil), (1, honest)], 4);

        router.submit(spec);
        let mut out = Vec::new();
        assert_eq!(router.collect(1, &mut out), 1, "the job must complete, not vanish");
        assert_eq!(out[0].id, spec.id);
        assert_eq!(
            out[0].fingerprint(),
            truth,
            "the forged result leaked through — the job was silently miscounted"
        );
        assert_ne!(out[0].support_digest, 0xBAD0_BAD0_BAD0_BAD0, "forged digest surfaced");
        assert!(router.failed().is_empty(), "the job must be re-served, not failed");
        assert_eq!(router.failed_nodes(), &[0], "the Byzantine node must be failed over");
        router.shutdown();
        server.join().expect("byzantine server panicked");
    }

    #[test]
    fn a_bit_flipped_result_frame_fails_the_node_not_the_job() {
        forged_frames_are_rejected_and_the_job_reserved(Sabotage::BitFlip);
    }

    #[test]
    fn a_truncated_result_frame_fails_the_node_not_the_job() {
        forged_frames_are_rejected_and_the_job_reserved(Sabotage::Truncate);
    }
}
