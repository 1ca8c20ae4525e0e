//! Workload generation: everything a run feeds the program under test is
//! drawn here from `--seed`, before the simulation starts.
//!
//! A [`Plan`] is a fixed op list, so virtual-clock results and counts
//! repeat bit for bit per seed; [`Plan::hash`] fingerprints it so two
//! runs can show they executed the same inputs.

use pm2_sim::rng::Xoshiro256;

/// Bytes at the front of every point-to-point payload: the send's due
/// (open loop) or post (closed loop) instant in virtual ns, then the
/// message id. The rest of the payload is [`fill_byte`] of the id.
pub const HEADER: usize = 16;

/// The four workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Overlap2n,
    Ring1024,
    IncastLossy,
    CollRmaStep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Overlap2n,
        Workload::Ring1024,
        Workload::IncastLossy,
        Workload::CollRmaStep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Overlap2n => "overlap_2n",
            Workload::Ring1024 => "ring_1024",
            Workload::IncastLossy => "incast_lossy",
            Workload::CollRmaStep => "coll_rma_step",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one "op" is, for the report.
    pub fn op_unit(self) -> &'static str {
        match self {
            Workload::CollRmaStep => "rank-step",
            _ => "message",
        }
    }
}

// ---- frozen sizes ----------------------------------------------------------
// Sized so one timed rep costs 2–4 s of host time on the seed commit
// (2-core sandbox) and a 20 s run holds 5–10 reps, with at least 500
// latency samples (25 beyond p95). Idle-core polling, not per-message
// work, sets these costs: up to 128 simulated cores poll through every
// virtual microsecond.

/// overlap_2n: app-thread pairs (one thread per node each).
pub const OVERLAP_PAIRS: usize = 4;
/// overlap_2n: iterations per pair; two messages per iteration.
pub const OVERLAP_ITERS: usize = 1100;
/// overlap_2n / paper fig. 4: compute between post and wait.
pub const OVERLAP_COMPUTE_NS: u64 = 20_000;

/// `--smoke` divides every op count by this.
pub const SMOKE_SHRINK: usize = 50;

/// ring_1024: ranks (1 socket × 2 cores each).
pub const RING_RANKS: usize = 1024;
/// ring_1024 under `--smoke`: its two barriers alone are 20 messages per
/// rank, so only fewer ranks make the smoke run short.
pub const RING_RANKS_SMOKE: usize = 128;
/// ring_1024: neighbour-exchange rounds.
pub const RING_ROUNDS: usize = 60;
/// ring_1024: payload band, mean 64 B.
pub const RING_BYTES: (usize, usize) = (48, 80);
/// ring_1024: the fabric's jitter on a frame's serialization time
/// (`FabricParams::jitter_frac`, drawn from the seeded simulation RNG):
/// ±25 % of ≈ 180 ns, i.e. ±1 % of the 4.6 µs one-way latency, whose
/// fixed 2.8 µs wire latency is not jittered. Latency here is a function
/// of the payload size alone, so without it every seed reports the same
/// percentiles to the nanosecond.
pub const RING_WIRE_JITTER: f64 = 0.25;

/// incast_lossy: ranks, streams per rank, messages per stream.
pub const INCAST_RANKS: usize = 16;
pub const INCAST_STREAMS_PER_RANK: usize = 8;
pub const INCAST_MSGS_PER_STREAM: usize = 48;
/// incast_lossy: the two hot ranks; half of every rank's streams go there.
pub const INCAST_HOT: [usize; 2] = [0, 1];
/// incast_lossy: uniform frame loss.
pub const INCAST_LOSS: f64 = 0.01;
/// incast_lossy: offered load on a hot rank's NIC as a share of its wire
/// capacity. Below 1, so the backlog cannot grow without bound.
pub const INCAST_HOT_LOAD: f64 = 0.6;
/// incast_lossy: how long a "late" receiver (every second stream) stays
/// away after each message before it posts its next receive, as a share
/// of the stream's mean inter-arrival gap. It is away *blocked* (the core
/// is released), not computing: a hot rank hosts 16 late receivers on 8
/// cores, and computing receivers tip that node into CPU overload, where
/// every latency turns chaotic (tried at shares 0.2 and 0.25).
pub const INCAST_LATE_SHARE: f64 = 0.5;

/// coll_rma_step: ranks and training-style steps per rank.
pub const STEP_RANKS: usize = 16;
pub const STEP_STEPS: usize = 32;
pub const STEP_GRAD_BYTES: usize = 256 << 10;
pub const STEP_PUT_BYTES: usize = 64 << 10;
/// coll_rma_step: per-step compute band (mean 200 µs); drawn per rank and
/// step, so ranks arrive at the collective slightly skewed.
pub const STEP_COMPUTE_NS: (u64, u64) = (180_000, 220_000);

/// Myri-10G wire bandwidth of the modelled testbed, bytes per µs
/// (`FabricParams::myri10g().wire_bytes_per_us`; asserted in the tests).
pub const WIRE_BYTES_PER_US: f64 = 1_250.0;

/// A size law: `(probability, lo, hi)` bands, sizes uniform within a band
/// (inclusive).
pub struct SizeMix(pub &'static [(f64, usize, usize)]);

/// overlap_2n: 70 % 1–8 KiB, 20 % 16–32 KiB (eager up to the 32 KiB
/// rendezvous threshold), 10 % 64–256 KiB rendezvous.
pub const OVERLAP_MIX: SizeMix = SizeMix(&[
    (0.7, 1 << 10, 8 << 10),
    (0.2, 16 << 10, 32 << 10),
    (0.1, 64 << 10, 256 << 10),
]);

/// incast_lossy: 90 % 256 B–4 KiB, 10 % 48–128 KiB rendezvous.
pub const INCAST_MIX: SizeMix = SizeMix(&[(0.9, 256, 4 << 10), (0.1, 48 << 10, 128 << 10)]);

impl SizeMix {
    /// The length at quantile `u ∈ [0, 1)` of the law (inverse CDF).
    pub fn at(&self, u: f64) -> usize {
        let mut rest = u;
        for &(p, lo, hi) in self.0 {
            if rest < p {
                return lo + (rest / p * (hi - lo + 1) as f64) as usize;
            }
            rest -= p;
        }
        // Rounding left u at the very top of the last band.
        self.0.last().expect("non-empty mix").2
    }

    /// Draws `n` lengths by stratified sampling: one uniform draw from
    /// each of `n` equal quantile strata, then a shuffle. Every draw still
    /// follows the law, but the multiset of sizes — and with it total
    /// bytes, the rendezvous share and the largest sizes — barely moves
    /// between seeds, so seed-to-seed spread of the virtual clock stays
    /// far below the regression bounds. The seed decides the order and
    /// the position inside each stratum.
    pub fn draw(&self, rng: &mut Xoshiro256, n: usize) -> Vec<usize> {
        let mut sizes: Vec<usize> = (0..n)
            .map(|k| self.at((k as f64 + rng.gen_f64()) / n as f64))
            .collect();
        rng.shuffle(&mut sizes);
        sizes
    }

    /// Smallest and largest length the law can draw.
    #[cfg(test)]
    pub fn bounds(&self) -> (usize, usize) {
        let lo = self.0.iter().map(|b| b.1).min().expect("non-empty mix");
        let hi = self.0.iter().map(|b| b.2).max().expect("non-empty mix");
        (lo, hi)
    }

    /// Expected length.
    pub fn mean(&self) -> f64 {
        self.0
            .iter()
            .map(|&(p, lo, hi)| p * (lo + hi) as f64 / 2.0)
            .sum()
    }
}

/// `n` arrival instants of a Poisson process on `[0, horizon_ns)`,
/// conditioned on exactly `n` arrivals: sorted uniform draws. The count is
/// fixed (so op counts repeat) while gaps stay exponential-like.
pub fn poisson_schedule(rng: &mut Xoshiro256, n: usize, horizon_ns: u64) -> Vec<u64> {
    let mut due: Vec<u64> = (0..n).map(|_| rng.gen_below(horizon_ns.max(1))).collect();
    due.sort_unstable();
    due
}

/// Globally unique message id: flow (pair, rank or stream) and sequence.
pub fn msg_id(flow: usize, seq: usize) -> u64 {
    ((flow as u64) << 32) | seq as u64
}

/// Body byte of message `id` (SplitMix64 finalizer, low byte).
pub fn fill_byte(id: u64) -> u8 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u8
}

/// Builds the payload of message `id`: stamp, id, then the fill byte.
pub fn payload(id: u64, stamp_ns: u64, len: usize) -> Vec<u8> {
    debug_assert!(len >= HEADER);
    let mut data = vec![fill_byte(id); len];
    data[..8].copy_from_slice(&stamp_ns.to_le_bytes());
    data[8..HEADER].copy_from_slice(&id.to_le_bytes());
    data
}

/// Checks a received payload against the generator; returns the stamp.
pub fn check_payload(data: &[u8], id: u64, len: usize) -> Option<u64> {
    if data.len() != len || len < HEADER {
        return None;
    }
    let stamp = u64::from_le_bytes(data[..8].try_into().ok()?);
    let got = u64::from_le_bytes(data[8..HEADER].try_into().ok()?);
    (got == id && all_bytes_are(&data[HEADER..], fill_byte(id))).then_some(stamp)
}

/// True if every byte of `data` equals `want` (branch-free fold, so the
/// compiler vectorises it; the check runs on every received byte).
pub fn all_bytes_are(data: &[u8], want: u8) -> bool {
    data.iter().fold(0u8, |acc, &b| acc | (b ^ want)) == 0
}

/// One open-loop client stream of incast_lossy.
pub struct Stream {
    pub src: usize,
    pub dst: usize,
    /// Receiver stays away per message before posting the next receive.
    pub late: bool,
    /// `(due instant in virtual ns, payload length)` per message.
    pub msgs: Vec<(u64, usize)>,
}

/// The generated inputs of one workload.
pub enum Plan {
    /// Per pair, per iteration: `(forward length, return length)`.
    Overlap(Vec<Vec<(usize, usize)>>),
    /// `sizes[rank * rounds + round]`.
    Ring {
        ranks: usize,
        rounds: usize,
        sizes: Vec<u8>,
    },
    Incast {
        ranks: usize,
        /// Absence of a late receiver per message, virtual ns.
        late_away_ns: u64,
        streams: Vec<Stream>,
    },
    /// `compute_ns[rank * steps + step]`, `contrib[rank * steps + step]`
    /// (the byte each rank contributes to the step's allreduce).
    Step {
        ranks: usize,
        steps: usize,
        compute_ns: Vec<u64>,
        contrib: Vec<u8>,
    },
}

const SALT_SIZES: u64 = 0x5EED_0000_51AE_0001;
const SALT_DEST: u64 = 0x5EED_0000_DE57_0002;
const SALT_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;
/// Salt of the fabric's `FaultPlan` seed.
pub const SALT_FAULT: u64 = 0x5EED_0000_FA17_0003;

/// `count / shrink`, at least `floor`.
fn shrunk(count: usize, shrink: usize, floor: usize) -> usize {
    (count / shrink.max(1)).max(floor)
}

impl Plan {
    /// Generates `workload`'s inputs from `seed`; `shrink` divides every
    /// op count (1 = the frozen size, 50 = smoke, 10 = the traced tenth).
    pub fn generate(workload: Workload, seed: u64, shrink: usize) -> Plan {
        match workload {
            Workload::Overlap2n => {
                let iters = shrunk(OVERLAP_ITERS, shrink, 4);
                Plan::Overlap(
                    (0..OVERLAP_PAIRS)
                        .map(|p| {
                            let mut rng = Xoshiro256::new(
                                seed ^ SALT_SIZES ^ (p as u64 + 1).wrapping_mul(SALT_STREAM),
                            );
                            OVERLAP_MIX
                                .draw(&mut rng, 2 * iters)
                                .chunks_exact(2)
                                .map(|c| (c[0], c[1]))
                                .collect()
                        })
                        .collect(),
                )
            }
            Workload::Ring1024 => {
                let ranks = if shrink >= SMOKE_SHRINK {
                    RING_RANKS_SMOKE
                } else {
                    RING_RANKS
                };
                let rounds = shrunk(RING_ROUNDS, shrink, 2);
                let mut rng = Xoshiro256::new(seed ^ SALT_SIZES);
                let (lo, hi) = RING_BYTES;
                let sizes = (0..ranks * rounds)
                    .map(|_| (lo + rng.gen_below((hi - lo + 1) as u64) as usize) as u8)
                    .collect();
                Plan::Ring {
                    ranks,
                    rounds,
                    sizes,
                }
            }
            Workload::IncastLossy => {
                let ranks = INCAST_RANKS;
                let msgs = shrunk(INCAST_MSGS_PER_STREAM, shrink, 4);
                // Every stream offers the same rate; a hot rank takes in
                // two streams from each other rank plus four from the
                // other hot rank.
                let hot_streams = (ranks - 2) * 2 + 4;
                let gap_ns = hot_streams as f64 * INCAST_MIX.mean()
                    / (INCAST_HOT_LOAD * WIRE_BYTES_PER_US)
                    * 1e3;
                let horizon_ns = (gap_ns * msgs as f64) as u64;
                let mut dest_rng = Xoshiro256::new(seed ^ SALT_DEST);
                let mut streams = Vec::with_capacity(ranks * INCAST_STREAMS_PER_RANK);
                for src in 0..ranks {
                    let cold: Vec<usize> = (0..ranks)
                        .filter(|r| *r != src && !INCAST_HOT.contains(r))
                        .collect();
                    for s in 0..INCAST_STREAMS_PER_RANK {
                        let id = streams.len();
                        // Streams 0..4 go to the hot ranks, alternating; a
                        // hot rank sends its share to the other hot rank.
                        let dst = if s < INCAST_STREAMS_PER_RANK / 2 {
                            let pick = INCAST_HOT[s % 2];
                            if pick == src {
                                INCAST_HOT[(s + 1) % 2]
                            } else {
                                pick
                            }
                        } else {
                            cold[dest_rng.gen_below(cold.len() as u64) as usize]
                        };
                        let mut rng = Xoshiro256::new(
                            seed ^ SALT_SIZES ^ (id as u64 + 1).wrapping_mul(SALT_STREAM),
                        );
                        let due = poisson_schedule(&mut rng, msgs, horizon_ns);
                        let sizes = INCAST_MIX.draw(&mut rng, msgs);
                        streams.push(Stream {
                            src,
                            dst,
                            late: s % 2 == 1,
                            msgs: due.into_iter().zip(sizes).collect(),
                        });
                    }
                }
                Plan::Incast {
                    ranks,
                    late_away_ns: (gap_ns * INCAST_LATE_SHARE) as u64,
                    streams,
                }
            }
            Workload::CollRmaStep => {
                let ranks = STEP_RANKS;
                let steps = shrunk(STEP_STEPS, shrink, 2);
                let mut rng = Xoshiro256::new(seed ^ SALT_SIZES);
                let (lo, hi) = STEP_COMPUTE_NS;
                let compute_ns = (0..ranks * steps)
                    .map(|_| lo + rng.gen_below(hi - lo + 1))
                    .collect();
                let contrib = (0..ranks * steps).map(|_| rng.next_u64() as u8).collect();
                Plan::Step {
                    ranks,
                    steps,
                    compute_ns,
                    contrib,
                }
            }
        }
    }

    /// Ops the plan attempts (messages, or rank-steps).
    pub fn ops(&self) -> u64 {
        match self {
            Plan::Overlap(pairs) => pairs.iter().map(|p| 2 * p.len() as u64).sum(),
            Plan::Ring { ranks, rounds, .. } => (ranks * rounds) as u64,
            Plan::Incast { streams, .. } => streams.iter().map(|s| s.msgs.len() as u64).sum(),
            Plan::Step { ranks, steps, .. } => (ranks * steps) as u64,
        }
    }

    /// Payload bytes the application hands to the library.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Plan::Overlap(pairs) => pairs.iter().flatten().map(|&(f, b)| (f + b) as u64).sum(),
            Plan::Ring { sizes, .. } => sizes.iter().map(|&s| u64::from(s)).sum(),
            Plan::Incast { streams, .. } => streams
                .iter()
                .flat_map(|s| s.msgs.iter())
                .map(|&(_, len)| len as u64)
                .sum(),
            Plan::Step { ranks, steps, .. } => {
                (ranks * steps) as u64 * (STEP_GRAD_BYTES + STEP_PUT_BYTES + 8) as u64
            }
        }
    }

    /// FNV-1a fingerprint of the op list (`workload_hash` in the report).
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Plan::Overlap(pairs) => {
                for (f, b) in pairs.iter().flatten() {
                    h.word(*f as u64);
                    h.word(*b as u64);
                }
            }
            Plan::Ring {
                ranks,
                rounds,
                sizes,
            } => {
                h.word(*ranks as u64);
                h.word(*rounds as u64);
                sizes.iter().for_each(|&s| h.word(u64::from(s)));
            }
            Plan::Incast {
                ranks,
                late_away_ns,
                streams,
            } => {
                h.word(*ranks as u64);
                h.word(*late_away_ns);
                for s in streams {
                    h.word(s.src as u64);
                    h.word(s.dst as u64);
                    h.word(u64::from(s.late));
                    for &(due, len) in &s.msgs {
                        h.word(due);
                        h.word(len as u64);
                    }
                }
            }
            Plan::Step {
                ranks,
                steps,
                compute_ns,
                contrib,
            } => {
                h.word(*ranks as u64);
                h.word(*steps as u64);
                compute_ns.iter().for_each(|&c| h.word(c));
                contrib.iter().for_each(|&c| h.word(u64::from(c)));
            }
        }
        h.0
    }
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_other_seed_other_plan() {
        for w in Workload::ALL {
            let a = Plan::generate(w, 1, 50);
            let b = Plan::generate(w, 1, 50);
            let c = Plan::generate(w, 2, 50);
            assert_eq!(a.hash(), b.hash(), "{}", w.name());
            assert_ne!(a.hash(), c.hash(), "{}", w.name());
            assert_eq!(
                a.ops(),
                c.ops(),
                "{}: op count is seed-independent",
                w.name()
            );
        }
    }

    #[test]
    fn size_mixes_stay_in_their_bands_and_hit_their_shares() {
        for mix in [&OVERLAP_MIX, &INCAST_MIX] {
            let (lo, hi) = mix.bounds();
            assert_eq!((mix.at(0.0), mix.at(0.999_999_999)), (lo, hi));
            let mut rng = Xoshiro256::new(3);
            let n = 2_000;
            let sizes = mix.draw(&mut rng, n);
            assert_eq!(sizes.len(), n);
            let mut per_band = vec![0usize; mix.0.len()];
            for &len in &sizes {
                assert!((lo..=hi).contains(&len) && len >= HEADER);
                let band = mix.0.iter().position(|b| (b.1..=b.2).contains(&len));
                per_band[band.expect("length falls in a band")] += 1;
            }
            // Stratified: the band shares are exact to within one draw.
            for (count, band) in per_band.iter().zip(mix.0) {
                assert!((*count as f64 - band.0 * n as f64).abs() <= 1.0);
            }
            let mean = sizes.iter().sum::<usize>() as f64 / n as f64;
            assert!((mean / mix.mean() - 1.0).abs() < 0.01);
            // Shuffled, not sorted; and another seed gives another order.
            assert!(sizes.windows(2).any(|w| w[0] > w[1]));
            assert_ne!(sizes, mix.draw(&mut Xoshiro256::new(4), n));
        }
    }

    #[test]
    fn poisson_schedule_is_sorted_bounded_and_has_the_offered_rate() {
        let mut rng = Xoshiro256::new(9);
        let horizon = 1_000_000_000;
        let due = poisson_schedule(&mut rng, 10_000, horizon);
        assert_eq!(due.len(), 10_000);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| t < horizon));
        // Exponential-like gaps: the coefficient of variation is near 1.
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean / (horizon as f64 / 10_000.0) - 1.0).abs() < 0.02);
        assert!((var.sqrt() / mean - 1.0).abs() < 0.1);
        assert!(poisson_schedule(&mut rng, 0, horizon).is_empty());
    }

    #[test]
    fn incast_structure_is_fixed_and_only_cold_destinations_move() {
        let Plan::Incast { ranks, streams, .. } = Plan::generate(Workload::IncastLossy, 5, 50)
        else {
            panic!("incast plan");
        };
        assert_eq!(streams.len(), ranks * INCAST_STREAMS_PER_RANK);
        for hot in INCAST_HOT {
            let inbound = streams.iter().filter(|s| s.dst == hot).count();
            assert_eq!(inbound, (ranks - 2) * 2 + 4, "hot rank {hot}");
        }
        assert!(streams.iter().all(|s| s.src != s.dst));
        assert_eq!(streams.iter().filter(|s| s.late).count(), streams.len() / 2);
        // Offered load on a hot NIC stays under its capacity.
        let horizon = streams
            .iter()
            .flat_map(|s| s.msgs.last())
            .map(|m| m.0)
            .max();
        let hot_bytes: usize = streams
            .iter()
            .filter(|s| s.dst == INCAST_HOT[0])
            .flat_map(|s| s.msgs.iter())
            .map(|m| m.1)
            .sum();
        let load = hot_bytes as f64 / (horizon.unwrap() as f64 / 1e3 * WIRE_BYTES_PER_US);
        assert!(load < 0.9, "hot-rank load {load}");
    }

    #[test]
    fn payload_round_trips_and_rejects_damage() {
        let id = msg_id(3, 17);
        let data = payload(id, 123_456, 300);
        assert_eq!(check_payload(&data, id, 300), Some(123_456));
        assert_eq!(check_payload(&data, id, 301), None);
        assert_eq!(check_payload(&data, msg_id(3, 18), 300), None);
        let mut bad = data.clone();
        bad[299] ^= 1;
        assert_eq!(check_payload(&bad, id, 300), None);
        assert_eq!(check_payload(&data[..HEADER - 1], id, HEADER - 1), None);
    }

    #[test]
    fn wire_constant_matches_the_modelled_fabric() {
        let p = pm2_fabric::FabricParams::myri10g();
        assert_eq!(p.wire_bytes_per_us, WIRE_BYTES_PER_US);
    }
}
