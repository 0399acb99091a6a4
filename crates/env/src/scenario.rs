//! Seeded, serializable scenario specs: the world-generator matrix.
//!
//! A [`ScenarioSpec`] composes a world from orthogonal axes — generator
//! family ([`EnvKind`]), moving-obstacle count, sensor degradation
//! ([`DegradationSpec`]) and camera resolution — all derived from one
//! seed. The spec is the *only* entropy source: every lane of a
//! [`crate::VecEnv`] built from it is bit-identical to a serial
//! [`DroneEnv`] seeded `spec.seed + lane`, at any pool size. `docs/scenarios.md` documents the
//! schema and the determinism contract.
//!
//! # Examples
//!
//! ```
//! use mramrl_env::{ScenarioSpec, WorldSpec, DegradationSpec, EnvKind};
//!
//! let spec = ScenarioSpec {
//!     world: WorldSpec { kind: EnvKind::ClutteredForest, movers: 3 },
//!     degradation: DegradationSpec::LEVELS[1].1,
//!     camera_px: 16,
//!     seed: 7,
//! };
//! let round = ScenarioSpec::decode(&spec.encode()).unwrap();
//! assert_eq!(round, spec);
//! let mut env = spec.build_env();
//! assert_eq!(env.reset().shape(), [1, 16, 16]);
//! ```

use core::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::camera::DepthCamera;
use crate::episode::DroneEnv;
use crate::geom::Vec2;
use crate::vecenv::VecEnv;
use crate::world::World;
use crate::worlds::EnvKind;

/// The world generators of the scenario matrix, in evaluation order:
/// two of the paper's Fig. 10/11 test worlds plus the four scenario
/// axes this subsystem adds (town grid, corridor, dense clutter,
/// 2.5-D heights).
pub const WORLD_AXIS: [EnvKind; 6] = [
    EnvKind::IndoorApartment,
    EnvKind::OutdoorForest,
    EnvKind::OutdoorTown,
    EnvKind::NarrowCorridor,
    EnvKind::ClutteredForest,
    EnvKind::HeightBand,
];

/// The sensor/dynamics degradation axis of a scenario.
///
/// All three knobs are *scales*, not absolutes, so they compose with any
/// world and camera resolution:
/// * `noise_scale` multiplies the stock 2 % range-proportional depth
///   noise,
/// * `dropout` is the per-pixel probability of a lost stereo return
///   (reads max range),
/// * `wind` is the per-step uncommanded drift magnitude in metres
///   (direction fixed per lane, gust factor ±25 % per step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationSpec {
    /// Multiplier on the camera's 2 % range-proportional noise.
    pub noise_scale: f32,
    /// Per-pixel dropout probability in `[0, 1)`.
    pub dropout: f32,
    /// Wind drift magnitude, metres per step (`0.0` = off).
    pub wind: f32,
}

impl DegradationSpec {
    /// No degradation: the exact pre-scenario sensor model.
    pub const NOMINAL: Self = Self {
        noise_scale: 1.0,
        dropout: 0.0,
        wind: 0.0,
    };

    /// The named degradation levels of the evaluation matrix, mildest
    /// first.
    pub const LEVELS: [(&'static str, Self); 3] = [
        ("nominal", Self::NOMINAL),
        (
            "degraded",
            Self {
                noise_scale: 2.0,
                dropout: 0.05,
                wind: 0.04,
            },
        ),
        (
            "severe",
            Self {
                noise_scale: 4.0,
                dropout: 0.15,
                wind: 0.10,
            },
        ),
    ];

    /// The per-step wind drift vector for a lane, or `None` when wind is
    /// off. The direction comes from a splitmix-style hash of the lane
    /// seed — fixed for the whole lane, different across lanes — so wind
    /// costs no extra RNG stream and replay stays bit-exact.
    pub fn wind_vector(&self, lane_seed: u64) -> Option<Vec2> {
        if self.wind <= 0.0 {
            return None;
        }
        let mut z = lane_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let unit = (z >> 11) as f32 / (1u64 << 53) as f32;
        let angle = unit * core::f32::consts::TAU;
        Some(Vec2::from_angle(angle) * self.wind)
    }
}

/// The world half of a scenario: which generator, plus how many moving
/// obstacles to graft onto it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldSpec {
    /// Generator family.
    pub kind: EnvKind,
    /// Number of orbiting moving obstacles to add (0 = static world).
    pub movers: usize,
}

impl WorldSpec {
    /// Builds the world for one lane seed: the generator's own layout
    /// first (byte-identical to [`EnvKind::build`]), then movers placed
    /// by a *separate* salted RNG stream so a static spec renders the
    /// exact legacy world.
    pub fn build(&self, seed: u64) -> World {
        let mut w = self.kind.build(seed);
        if self.movers == 0 {
            return w;
        }
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xD15C));
        let bounds = w.bounds();
        let spawn = w.spawn();
        let mut placed = 0usize;
        let mut attempts = 0usize;
        while placed < self.movers && attempts < 300 {
            attempts += 1;
            let anchor = Vec2::new(
                rng.gen_range(bounds.min.x + 1.5..bounds.max.x - 1.5),
                rng.gen_range(bounds.min.y + 1.5..bounds.max.y - 1.5),
            );
            let radius = rng.gen_range(0.2..0.4);
            let orbit = rng.gen_range(0.8..2.0);
            // Keep the whole orbit disc away from the spawn so episode
            // starts are never instant crashes.
            if anchor.distance(spawn) < 3.5 + orbit + radius {
                continue;
            }
            let speed = rng.gen_range(0.05f32..0.2);
            let omega = if rng.gen_bool(0.5) { speed } else { -speed };
            let phase = rng.gen_range(0.0..core::f32::consts::TAU);
            w.add_mover(anchor, radius, orbit, omega, phase);
            placed += 1;
        }
        w
    }
}

/// A complete, serializable scenario: world × degradation × camera ×
/// seed. See the module docs for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// World generator + movers.
    pub world: WorldSpec,
    /// Sensor/dynamics degradation.
    pub degradation: DegradationSpec,
    /// Camera resolution (square, pixels per side).
    pub camera_px: usize,
    /// Base seed; lane `i` derives [`ScenarioSpec::lane_seed`] from it.
    pub seed: u64,
}

impl ScenarioSpec {
    /// The pre-scenario baseline for `kind`: static world, nominal
    /// sensors, the stock 40 px camera. [`DroneEnv::new`] is defined as
    /// this spec, which is what pins legacy byte-level behaviour.
    pub fn baseline(kind: EnvKind, seed: u64) -> Self {
        Self {
            world: WorldSpec { kind, movers: 0 },
            degradation: DegradationSpec::NOMINAL,
            camera_px: 40,
            seed,
        }
    }

    /// The seed for lane `i`: `seed.wrapping_add(i)` — the same rule
    /// [`crate::VecEnv`] applies, documented there and in
    /// `docs/scenarios.md`.
    pub fn lane_seed(&self, lane: usize) -> u64 {
        self.seed.wrapping_add(lane as u64)
    }

    /// The camera this scenario renders with: `camera_px` square, the
    /// stock 90° / 20 m optics, noise `2 % × noise_scale` (clamped below
    /// the camera's 50 % cap) and the spec's dropout.
    pub fn camera(&self) -> DepthCamera {
        let noise = (0.02 * self.degradation.noise_scale).min(0.49);
        DepthCamera::new(
            self.camera_px,
            self.camera_px,
            90.0f32.to_radians(),
            20.0,
            noise,
        )
        .with_dropout(self.degradation.dropout)
    }

    /// Builds the serial environment for this spec (lane 0).
    pub fn build_env(&self) -> DroneEnv {
        DroneEnv::from_spec(self, self.seed)
    }

    /// Builds a `lanes`-wide [`VecEnv`] for this spec.
    pub fn build_vec_env(&self, lanes: usize) -> VecEnv {
        VecEnv::from_spec(self, lanes)
    }

    /// Canonical one-line encoding, `key=value` pairs joined by `;`.
    /// Floats print in Rust's shortest-roundtrip form, so
    /// `decode(encode(s)) == s` exactly.
    pub fn encode(&self) -> String {
        format!(
            "world={};movers={};noise={};dropout={};wind={};px={};seed={}",
            self.world.kind,
            self.world.movers,
            self.degradation.noise_scale,
            self.degradation.dropout,
            self.degradation.wind,
            self.camera_px,
            self.seed,
        )
    }

    /// Parses [`ScenarioSpec::encode`]'s format.
    ///
    /// # Errors
    ///
    /// Returns a [`ScenarioParseError`] naming the offending field on
    /// unknown keys, missing keys, or unparsable values.
    pub fn decode(s: &str) -> Result<Self, ScenarioParseError> {
        fn bad(key: &str, value: &str) -> ScenarioParseError {
            ScenarioParseError(format!("bad value for `{key}`: `{value}`"))
        }
        let mut spec = Self::baseline(EnvKind::IndoorApartment, 0);
        let mut seen_world = false;
        for pair in s.split(';') {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| ScenarioParseError(format!("missing `=` in `{pair}`")))?;
            match key {
                "world" => {
                    spec.world.kind = value.parse().map_err(|_| bad(key, value))?;
                    seen_world = true;
                }
                "movers" => spec.world.movers = value.parse().map_err(|_| bad(key, value))?,
                "noise" => {
                    spec.degradation.noise_scale = value.parse().map_err(|_| bad(key, value))?;
                }
                "dropout" => {
                    spec.degradation.dropout = value.parse().map_err(|_| bad(key, value))?;
                }
                "wind" => spec.degradation.wind = value.parse().map_err(|_| bad(key, value))?,
                "px" => spec.camera_px = value.parse().map_err(|_| bad(key, value))?,
                "seed" => spec.seed = value.parse().map_err(|_| bad(key, value))?,
                other => {
                    return Err(ScenarioParseError(format!("unknown key `{other}`")));
                }
            }
        }
        if !seen_world {
            return Err(ScenarioParseError("missing `world` key".to_string()));
        }
        Ok(spec)
    }

    /// Short human-readable identifier (world, movers, seed) for table
    /// rows and log lines; not round-trippable — use
    /// [`ScenarioSpec::encode`] for that.
    pub fn id(&self) -> String {
        format!("{}+m{}s{}", self.world.kind, self.world.movers, self.seed)
    }
}

/// Error from [`ScenarioSpec::decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioParseError(String);

impl fmt::Display for ScenarioParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec parse error: {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demanding() -> ScenarioSpec {
        ScenarioSpec {
            world: WorldSpec {
                kind: EnvKind::ClutteredForest,
                movers: 3,
            },
            degradation: DegradationSpec::LEVELS[2].1,
            camera_px: 16,
            seed: 11,
        }
    }

    #[test]
    fn encode_decode_roundtrip_all_axes() {
        for kind in WORLD_AXIS {
            for (_, deg) in DegradationSpec::LEVELS {
                let spec = ScenarioSpec {
                    world: WorldSpec { kind, movers: 2 },
                    degradation: deg,
                    camera_px: 24,
                    seed: 99,
                };
                assert_eq!(ScenarioSpec::decode(&spec.encode()), Ok(spec));
            }
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ScenarioSpec::decode("movers=1").is_err(), "no world");
        assert!(ScenarioSpec::decode("world=nope").is_err());
        assert!(ScenarioSpec::decode("world=outdoor-forest;x=1").is_err());
        assert!(ScenarioSpec::decode("world=outdoor-forest;px=abc").is_err());
    }

    #[test]
    fn static_spec_builds_the_exact_legacy_world() {
        let legacy = EnvKind::OutdoorForest.build(5);
        let spec = WorldSpec {
            kind: EnvKind::OutdoorForest,
            movers: 0,
        };
        assert_eq!(spec.build(5), legacy);
    }

    #[test]
    fn movers_are_placed_clear_of_spawn() {
        let spec = demanding();
        let w = spec.world.build(spec.seed);
        assert_eq!(w.movers().len(), 3);
        for m in w.movers() {
            assert!(
                m.anchor().distance(w.spawn()) > 3.5 + m.orbit(),
                "orbit crosses spawn"
            );
        }
    }

    #[test]
    fn wind_direction_is_per_lane_and_deterministic() {
        let deg = DegradationSpec::LEVELS[2].1;
        let a = deg.wind_vector(1).unwrap();
        assert_eq!(Some(a), deg.wind_vector(1));
        assert_ne!(Some(a), deg.wind_vector(2));
        let mag = (a.x * a.x + a.y * a.y).sqrt();
        assert!((mag - deg.wind).abs() < 1e-5, "magnitude {mag}");
        assert_eq!(DegradationSpec::NOMINAL.wind_vector(1), None);
    }

    #[test]
    fn baseline_env_matches_legacy_constructor() {
        let mut legacy = DroneEnv::new(EnvKind::OutdoorTown, 8);
        let mut fresh = ScenarioSpec::baseline(EnvKind::OutdoorTown, 8).build_env();
        assert_eq!(legacy.reset(), fresh.reset());
        for i in 0..30 {
            let a = crate::Action::from_index(i % 5);
            let sl = legacy.step(a);
            let sf = fresh.step(a);
            assert_eq!(sl, sf);
            if sl.crashed {
                assert_eq!(legacy.reset(), fresh.reset());
            }
        }
    }

    #[test]
    fn degraded_scenario_steps_and_stays_in_bounds() {
        let spec = demanding();
        let mut env = spec.build_env();
        env.reset();
        for i in 0..120 {
            let s = env.step(crate::Action::from_index(i % 5));
            assert!(s.reward >= -1.0 && s.reward <= 1.0);
            assert!(s.observation.shape() == [1, 16, 16]);
            if s.crashed {
                env.reset();
            }
        }
    }
}
