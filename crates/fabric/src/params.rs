//! Interconnect cost model, calibrated to the paper's MYRI-10G testbed.

use pm2_sim::{SimDuration, SimTime};

/// A rail going dark: frames bound for `node` (or for every node when
/// `node` is `None`) whose delivery would land inside `[from, until)` are
/// held in the switch and released at `until`, in their original order.
#[derive(Debug, Clone)]
pub struct StallWindow {
    /// Destination node affected, or `None` for the whole rail.
    pub node: Option<usize>,
    /// Start of the dark period.
    pub from: SimTime,
    /// End of the dark period (frames are released here).
    pub until: SimTime,
}

/// Seeded, deterministic fault-injection plan for one fabric (rail).
///
/// Faults come in two flavours that compose freely:
///
/// * **rate-based**: each transmitted frame independently draws from the
///   plan's own [`Xoshiro256`](pm2_sim::rng::Xoshiro256) stream (seeded by
///   [`FaultPlan::seed`], disjoint from the simulation RNG so enabling
///   faults never perturbs happy-path timing) and may be dropped,
///   duplicated, reorder-delayed or corrupted; `window` restricts the
///   draws to frames *sent* inside the interval;
/// * **targeted**: `drop_frames` & friends name exact frame indices in the
///   fabric-global transmission order, which is how the scenario tests hit
///   "the CTS of this rendezvous" deterministically.
///
/// An empty (default) plan is inert: the fabric takes the exact same code
/// path as before the reliability work, byte-identical timing included.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed of the fault stream (independent of the simulation seed).
    pub seed: u64,
    /// Probability that a frame is silently dropped on the wire.
    pub drop_rate: f64,
    /// Probability that a frame is delivered twice.
    pub dup_rate: f64,
    /// Probability that a frame is held back by [`FaultPlan::delay`],
    /// letting later frames of the same link overtake it (reordering).
    pub delay_rate: f64,
    /// Probability that a frame arrives corrupted: the NIC verifies the
    /// CRC and discards it, so the protocol sees it as a loss.
    pub corrupt_rate: f64,
    /// Extra in-flight time for delayed frames.
    pub delay: SimDuration,
    /// If set, rate faults only apply to frames sent within the window.
    pub window: Option<(SimTime, SimTime)>,
    /// Exact fabric-global frame indices to drop.
    pub drop_frames: Vec<u64>,
    /// Exact frame indices to duplicate.
    pub dup_frames: Vec<u64>,
    /// Exact frame indices to reorder-delay by [`FaultPlan::delay`].
    pub delay_frames: Vec<u64>,
    /// Exact frame indices to corrupt (CRC-discarded at the receiver).
    pub corrupt_frames: Vec<u64>,
    /// Dark periods during which a rail buffers instead of delivering.
    pub stalls: Vec<StallWindow>,
}

impl FaultPlan {
    /// Uniform loss plan: every frame dropped with probability `rate`.
    pub fn loss(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_rate: rate,
            ..FaultPlan::default()
        }
    }

    /// True if the plan can affect any frame. Inactive plans cost nothing
    /// and leave fabric timing bit-identical to a build without faults.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || self.corrupt_rate > 0.0
            || !self.drop_frames.is_empty()
            || !self.dup_frames.is_empty()
            || !self.delay_frames.is_empty()
            || !self.corrupt_frames.is_empty()
            || !self.stalls.is_empty()
    }
}

/// All virtual-time and CPU-cost parameters of the simulated fabric.
///
/// The defaults ([`FabricParams::myri10g`]) approximate a 2008-era Myrinet
/// MYRI-10G + MX 1.2.3 installation on 2.33 GHz Xeons:
///
/// * one-way small-message latency ≈ 3 µs (2.8 µs wire + host poll),
/// * sustained wire bandwidth ≈ 1.25 GB/s,
/// * host memcpy into registered memory ≈ 3 GB/s,
/// * PIO for messages up to 128 B,
/// * rendezvous above 32 kB ("Myrinet's MX driver uses a rendezvous
///   protocol for messages larger than 32kB", §2.3).
#[derive(Debug, Clone)]
pub struct FabricParams {
    // -- wire ------------------------------------------------------------
    /// One-way propagation + switch latency for any frame.
    pub wire_latency: SimDuration,
    /// Wire bandwidth in bytes per microsecond (1250 ≈ 10 Gbit/s).
    pub wire_bytes_per_us: f64,
    /// Fixed per-frame serialization overhead at the NIC egress.
    pub frame_overhead: SimDuration,
    /// Uniform multiplicative jitter on wire time: actual = nominal ×
    /// (1 ± jitter_frac). 0 disables jitter (deterministic timing).
    pub jitter_frac: f64,

    // -- host-side submission ---------------------------------------------
    /// Largest message sent by PIO (CPU writes payload to NIC registers).
    pub pio_threshold: usize,
    /// Fixed PIO cost.
    pub pio_base: SimDuration,
    /// Per-byte PIO cost (PIO is slow: the CPU drives every word).
    pub pio_bytes_per_us: f64,
    /// Host memcpy bandwidth into registered memory, bytes per µs.
    pub memcpy_bytes_per_us: f64,
    /// Fixed memcpy startup cost.
    pub memcpy_base: SimDuration,
    /// Cost of posting a DMA descriptor to the NIC.
    pub dma_setup: SimDuration,

    // -- host-side reception ------------------------------------------------
    /// CPU cost of one NIC poll (check completion queue).
    pub poll_cost: SimDuration,
    /// One-way cost of entering/leaving a blocking kernel call (the
    /// overhead of the method of \[10\]).
    pub syscall_cost: SimDuration,

    // -- registered memory ---------------------------------------------------
    /// Fixed cost of registering a buffer with the NIC (pinning pages).
    pub reg_base: SimDuration,
    /// Registration cost per registered byte (page-table walking).
    pub reg_bytes_per_us: f64,
    /// Cost of a registration-cache hit.
    pub reg_hit: SimDuration,
    /// Registration cache capacity in bytes.
    pub reg_cache_bytes: usize,

    // -- shared-memory channel ------------------------------------------------
    /// Latency of the intra-node mailbox (cache-coherence propagation).
    pub shm_latency: SimDuration,
    /// Intra-node copy bandwidth, bytes per µs.
    pub shm_bytes_per_us: f64,
    /// Fixed cost per shared-memory enqueue/dequeue.
    pub shm_base: SimDuration,

    // -- protocol constants -----------------------------------------------------
    /// Wire size of a control frame (RTS/CTS/acks).
    pub ctrl_frame_bytes: usize,

    // -- fault injection ---------------------------------------------------------
    /// Deterministic fault-injection plan (inert by default).
    pub fault: FaultPlan,
}

impl FabricParams {
    /// The MYRI-10G-era default model.
    pub fn myri10g() -> Self {
        FabricParams {
            wire_latency: SimDuration::from_nanos(2_800),
            wire_bytes_per_us: 1_250.0,
            frame_overhead: SimDuration::from_nanos(100),
            jitter_frac: 0.0,
            pio_threshold: 128,
            pio_base: SimDuration::from_nanos(300),
            pio_bytes_per_us: 500.0,
            memcpy_bytes_per_us: 3_000.0,
            memcpy_base: SimDuration::from_nanos(200),
            dma_setup: SimDuration::from_nanos(500),
            poll_cost: SimDuration::from_nanos(200),
            syscall_cost: SimDuration::from_nanos(1_500),
            reg_base: SimDuration::from_nanos(600),
            reg_bytes_per_us: 40_000.0,
            reg_hit: SimDuration::from_nanos(100),
            reg_cache_bytes: 16 << 20,
            shm_latency: SimDuration::from_nanos(200),
            shm_bytes_per_us: 6_000.0,
            shm_base: SimDuration::from_nanos(150),
            ctrl_frame_bytes: 64,
            fault: FaultPlan::default(),
        }
    }

    /// Wire transmission time of `bytes` (excluding latency), with the
    /// per-frame overhead.
    pub fn wire_time(&self, bytes: usize) -> SimDuration {
        self.frame_overhead + SimDuration::from_micros_f64(bytes as f64 / self.wire_bytes_per_us)
    }

    /// Host CPU cost of submitting an eager message of `bytes`:
    /// PIO below the threshold, copy-into-registered + DMA post above.
    pub fn submit_cost(&self, bytes: usize) -> SimDuration {
        if bytes <= self.pio_threshold {
            self.pio_base + SimDuration::from_micros_f64(bytes as f64 / self.pio_bytes_per_us)
        } else {
            self.memcpy_base
                + SimDuration::from_micros_f64(bytes as f64 / self.memcpy_bytes_per_us)
                + self.dma_setup
        }
    }

    /// Host memcpy cost for `bytes` (e.g. unexpected-queue to app buffer).
    pub fn memcpy_cost(&self, bytes: usize) -> SimDuration {
        self.memcpy_base + SimDuration::from_micros_f64(bytes as f64 / self.memcpy_bytes_per_us)
    }

    /// CPU cost of a shared-memory copy of `bytes` (one side).
    pub fn shm_copy_cost(&self, bytes: usize) -> SimDuration {
        self.shm_base + SimDuration::from_micros_f64(bytes as f64 / self.shm_bytes_per_us)
    }

    /// Cost of registering `bytes` on a cache miss.
    pub fn reg_miss_cost(&self, bytes: usize) -> SimDuration {
        self.reg_base + SimDuration::from_micros_f64(bytes as f64 / self.reg_bytes_per_us)
    }
}

impl Default for FabricParams {
    fn default() -> Self {
        FabricParams::myri10g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_uses_pio_below_threshold() {
        let p = FabricParams::myri10g();
        let pio = p.submit_cost(64);
        let dma = p.submit_cost(256);
        // 64 B PIO: 0.3 + 0.128 µs; 256 B copy+DMA: 0.2 + 0.085 + 0.5 µs.
        assert!(pio.as_nanos() < 500);
        assert!(dma > pio);
    }

    #[test]
    fn submit_cost_grows_with_size() {
        let p = FabricParams::myri10g();
        let c8k = p.submit_cost(8 << 10);
        let c32k = p.submit_cost(32 << 10);
        assert!(c32k > c8k * 3);
        // 32 kB at 3 GB/s ≈ 10.9 µs + fixed: "dozens of microseconds".
        assert!(c32k.as_micros() >= 10 && c32k.as_micros() <= 20);
    }

    #[test]
    fn wire_time_matches_bandwidth() {
        let p = FabricParams::myri10g();
        // 128 kB at 1.25 GB/s ≈ 104.9 µs.
        let t = p.wire_time(128 << 10);
        assert!((t.as_micros_f64() - 105.0).abs() < 2.0, "{t}");
    }

    #[test]
    fn latency_in_myrinet_range() {
        let p = FabricParams::myri10g();
        let one_way = p.wire_latency + p.wire_time(0) + p.poll_cost;
        assert!(one_way.as_micros_f64() > 2.0 && one_way.as_micros_f64() < 4.0);
    }
}
