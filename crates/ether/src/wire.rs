//! Wire timing for the 10 Mbit/s segment.

use simkit::{SimRng, SimTime};

/// Preamble plus start-frame delimiter, in bytes.
pub const PREAMBLE_BYTES: usize = 8;

/// Inter-frame gap: 96 bit times.
pub const IFG_BITS: usize = 96;

/// Configuration of the Ethernet segment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireConfig {
    /// Line rate in bits per second.
    pub bit_rate: f64,
    /// One-way propagation delay.
    pub propagation: SimTime,
    /// Bit error rate applied to frames in flight.
    pub ber: f64,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            bit_rate: 10e6,
            propagation: SimTime::from_ns(500),
            ber: 0.0,
        }
    }
}

impl WireConfig {
    /// Serialization time of `wire_len` frame bytes, including
    /// preamble and the inter-frame gap that must elapse before the
    /// next frame.
    #[must_use]
    pub fn frame_time(&self, wire_len: usize) -> SimTime {
        let bits = ((wire_len + PREAMBLE_BYTES) * 8 + IFG_BITS) as f64;
        SimTime::from_us_f64(bits / self.bit_rate * 1e6)
    }
}

/// One direction of the (idle, two-host) segment: frames serialize
/// back to back; bit errors corrupt payload bytes in flight.
#[derive(Clone, Debug)]
pub struct EtherWire {
    /// Parameters.
    pub config: WireConfig,
    busy_until: SimTime,
    rng: SimRng,
    /// Frames carried.
    pub frames_carried: u64,
    /// Frames delivered corrupted.
    pub frames_corrupted: u64,
    /// Raw-frame capture tap (`LinkFrame`): every delivered frame
    /// (FCS included, corruption applied), stamped at its delivery
    /// time. Zero-cost unless armed.
    pub taps: simcap::TapSet,
}

impl EtherWire {
    /// Creates an idle wire.
    #[must_use]
    pub fn new(config: WireConfig, seed: u64) -> Self {
        EtherWire {
            config,
            busy_until: SimTime::ZERO,
            rng: SimRng::seed_stream(seed, 0xe0),
            frames_carried: 0,
            frames_corrupted: 0,
            taps: simcap::TapSet::off(),
        }
    }

    /// Transmits a frame whose bytes are `wire` starting no earlier
    /// than `ready`. Returns `(delivery_time, bytes_as_delivered)`.
    pub fn carry(&mut self, ready: SimTime, mut wire: Vec<u8>) -> (SimTime, Vec<u8>) {
        let start = ready.max(self.busy_until);
        let end = start + self.config.frame_time(wire.len());
        self.busy_until = end;
        self.frames_carried += 1;
        let nbits = (wire.len() * 8) as u64;
        let flips = self.rng.binomial_small_p(nbits, self.config.ber);
        if flips > 0 {
            self.frames_corrupted += 1;
            let mut flipped = Vec::with_capacity(flips as usize);
            while flipped.len() < flips as usize && flipped.len() < wire.len() * 8 {
                let bit = self.rng.next_below(nbits as u32) as usize;
                if !flipped.contains(&bit) {
                    flipped.push(bit);
                    wire[bit / 8] ^= 1 << (7 - bit % 8);
                }
            }
        }
        let delivery = end + self.config.propagation;
        if self.taps.wants(simcap::TapPoint::LinkFrame) {
            self.taps
                .record(simcap::TapPoint::LinkFrame, delivery, wire.clone());
        }
        (delivery, wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_frame_time_is_about_67us() {
        let c = WireConfig::default();
        // 64 + 8 preamble bytes = 576 bits, + 96 IFG = 672 bits at
        // 10 Mbit/s = 67.2 µs.
        let t = c.frame_time(64).as_us_f64();
        assert!((t - 67.2).abs() < 0.1, "{t}");
    }

    #[test]
    fn full_mtu_frame_time() {
        let c = WireConfig::default();
        // 1518 + 8 bytes + 96 bits = 12304 bits = 1230.4 µs.
        let t = c.frame_time(1518).as_us_f64();
        assert!((t - 1230.4).abs() < 0.5, "{t}");
    }

    #[test]
    fn frames_serialize() {
        let mut w = EtherWire::new(WireConfig::default(), 1);
        let (d1, _) = w.carry(SimTime::ZERO, vec![0u8; 64]);
        let (d2, _) = w.carry(SimTime::ZERO, vec![0u8; 64]);
        let ft = WireConfig::default().frame_time(64);
        let prop = WireConfig::default().propagation;
        assert_eq!(d1, ft + prop);
        assert_eq!(d2, ft * 2 + prop);
    }

    #[test]
    fn clean_wire_preserves_bytes() {
        let mut w = EtherWire::new(WireConfig::default(), 1);
        let data: Vec<u8> = (0..200u8).collect();
        let (_, out) = w.carry(SimTime::ZERO, data.clone());
        assert_eq!(out, data);
    }

    #[test]
    fn noisy_wire_corrupts_at_rate() {
        let mut w = EtherWire::new(
            WireConfig {
                ber: 1e-4,
                ..WireConfig::default()
            },
            5,
        );
        let mut corrupted = 0;
        for _ in 0..2000 {
            let data = vec![0xaau8; 125]; // 1000 bits: ~10% hit rate.
            let (_, out) = w.carry(SimTime::ZERO, data.clone());
            if out != data {
                corrupted += 1;
            }
        }
        assert!((120..280).contains(&corrupted), "{corrupted}");
        assert_eq!(w.frames_corrupted, corrupted as u64);
    }
}
