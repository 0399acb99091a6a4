//! Bit-exact pin of the paper's accounting: the Fig. 12 forward and
//! backward tables and the Fig. 13(b) per-image costs of the paper's
//! AlexNet under both calibration profiles, plus the micro-net model that
//! `perfbench --trace` ranks its measured layers against. Every `f64` is
//! folded by `to_bits`, so any change to these numbers, however small,
//! changes the digest and must be made on purpose.

use mramrl::accel::{LayerCost, PerImageCost, PlatformModel, SystemParams};
use mramrl::{Calibration, Topology};

/// FNV-1a digest of everything the test folds.
const PAPER_ACCOUNTING_DIGEST: u64 = 0x2102_1362_fd58_77bf;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    fn table(&mut self, rows: &[LayerCost]) {
        for c in rows {
            self.bytes(c.name.as_bytes());
            self.f64(c.latency_ms);
            self.bytes(&c.active_pes.to_le_bytes());
            self.f64(c.power_mw);
            self.f64(c.energy_mj);
            self.bytes(&[u8::from(c.nvm_write)]);
            self.bytes(format!("{:?}", c.provenance).as_bytes());
        }
    }

    fn per_image(&mut self, c: PerImageCost) {
        for v in [c.forward_ms, c.backward_ms, c.forward_mj, c.backward_mj] {
            self.f64(v);
        }
    }
}

#[test]
fn paper_accounting_is_bit_exact() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for calib in [Calibration::date19(), Calibration::ideal()] {
        let m = PlatformModel::new(calib);
        h.table(m.forward_table());
        h.table(m.backward_table());
        for topo in Topology::ALL {
            h.per_image(m.per_image(topo));
        }
    }
    let traced = PlatformModel::with_spec(
        mramrl_bench::batch_td_spec(),
        SystemParams::date19(),
        Calibration::ideal(),
    );
    h.table(traced.forward_table());
    h.table(traced.backward_table());
    assert_eq!(h.0, PAPER_ACCOUNTING_DIGEST, "digest {:#018x}", h.0);
}
