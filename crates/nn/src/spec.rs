//! Declarative network specifications.
//!
//! [`NetworkSpec::date19_alexnet`] is the paper's modified AlexNet
//! (Fig. 3(a)) — 5 conv + 5 FC layers, 56,190,341 weights. The census
//! functions reproduce the Fig. 3(a) table *exactly* without allocating the
//! 56 M parameters; [`NetworkSpec::build`] instantiates trainable networks
//! (use it for the micro variant; building the full AlexNet allocates
//! ≈450 MB and is only needed for completeness tests).

use crate::conv::Conv2d;
use crate::error::NnError;
use crate::fc::Linear;
use crate::flatten::Flatten;
use crate::init::rng_from_seed;
use crate::layer::Layer;
use crate::lrn::Lrn;
use crate::maxpool::MaxPool2d;
use crate::network::Network;
use crate::relu::Relu;

/// One layer in a [`NetworkSpec`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayerSpec {
    /// 2-D convolution.
    Conv {
        /// Layer name.
        name: String,
        /// Input channels.
        in_c: usize,
        /// Output channels.
        out_c: usize,
        /// Square kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// ReLU activation.
    Relu {
        /// Layer name.
        name: String,
    },
    /// AlexNet local response normalisation.
    Lrn {
        /// Layer name.
        name: String,
    },
    /// Max pooling.
    MaxPool {
        /// Layer name.
        name: String,
        /// Square window.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Flatten to a vector.
    Flatten {
        /// Layer name.
        name: String,
    },
    /// Fully-connected layer.
    Fc {
        /// Layer name.
        name: String,
        /// Input features.
        in_f: usize,
        /// Output features.
        out_f: usize,
    },
}

impl LayerSpec {
    /// The layer's name.
    pub fn name(&self) -> &str {
        match self {
            LayerSpec::Conv { name, .. }
            | LayerSpec::Relu { name }
            | LayerSpec::Lrn { name }
            | LayerSpec::MaxPool { name, .. }
            | LayerSpec::Flatten { name }
            | LayerSpec::Fc { name, .. } => name,
        }
    }

    /// Weight count including biases (0 for param-free layers).
    pub fn weights(&self) -> u64 {
        match self {
            LayerSpec::Conv { in_c, out_c, k, .. } => {
                (*in_c as u64) * (*out_c as u64) * (*k as u64) * (*k as u64) + *out_c as u64
            }
            LayerSpec::Fc { in_f, out_f, .. } => (*in_f as u64) * (*out_f as u64) + *out_f as u64,
            _ => 0,
        }
    }
}

/// Census row for one parameterised layer (the Fig. 3(a) table).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCensus {
    /// Layer name.
    pub name: String,
    /// Input neurons feeding the layer (Fig. 3(a) "# neurons" column for
    /// FC layers; output elements for conv layers).
    pub neurons: u64,
    /// Weights including biases.
    pub weights: u64,
    /// Percent of the whole network's weights.
    pub pct_of_total: f64,
    /// Percent of weights from this layer to the output (Fig. 3(a)
    /// "% cumulative weights").
    pub pct_cumulative: f64,
}

/// A declarative network description.
///
/// # Examples
///
/// ```
/// use mramrl_nn::NetworkSpec;
///
/// let spec = NetworkSpec::date19_alexnet();
/// assert_eq!(spec.total_weights(), 56_190_341);
/// // Fig. 3(a): FC layers hold 93.33 % of all weights.
/// let census = spec.weight_census();
/// let fc1 = census.iter().find(|c| c.name == "FC1").unwrap();
/// assert!((fc1.pct_cumulative - 93.33).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Input shape `[C, H, W]`.
    pub input_shape: [usize; 3],
    /// Layers in forward order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkSpec {
    /// The paper's modified AlexNet: 227×227×3 input, 5 conv + 5 FC,
    /// 56,190,341 weights, 5 outputs (the drone's action space).
    pub fn date19_alexnet() -> Self {
        use LayerSpec::*;
        let layers = vec![
            Conv {
                name: "CONV1".into(),
                in_c: 3,
                out_c: 96,
                k: 11,
                stride: 4,
                pad: 0,
            },
            Relu {
                name: "relu1".into(),
            },
            Lrn {
                name: "norm1".into(),
            },
            MaxPool {
                name: "pool1".into(),
                k: 3,
                stride: 2,
            },
            Conv {
                name: "CONV2".into(),
                in_c: 96,
                out_c: 256,
                k: 5,
                stride: 1,
                pad: 2,
            },
            Relu {
                name: "relu2".into(),
            },
            Lrn {
                name: "norm2".into(),
            },
            MaxPool {
                name: "pool2".into(),
                k: 3,
                stride: 2,
            },
            Conv {
                name: "CONV3".into(),
                in_c: 256,
                out_c: 384,
                k: 3,
                stride: 1,
                pad: 1,
            },
            Relu {
                name: "relu3".into(),
            },
            Conv {
                name: "CONV4".into(),
                in_c: 384,
                out_c: 384,
                k: 3,
                stride: 1,
                pad: 1,
            },
            Relu {
                name: "relu4".into(),
            },
            Conv {
                name: "CONV5".into(),
                in_c: 384,
                out_c: 256,
                k: 3,
                stride: 1,
                pad: 1,
            },
            Relu {
                name: "relu5".into(),
            },
            MaxPool {
                name: "pool5".into(),
                k: 3,
                stride: 2,
            },
            Flatten {
                name: "flatten".into(),
            },
            Fc {
                name: "FC1".into(),
                in_f: 9216,
                out_f: 4096,
            },
            Relu {
                name: "relu6".into(),
            },
            Fc {
                name: "FC2".into(),
                in_f: 4096,
                out_f: 2048,
            },
            Relu {
                name: "relu7".into(),
            },
            Fc {
                name: "FC3".into(),
                in_f: 2048,
                out_f: 2048,
            },
            Relu {
                name: "relu8".into(),
            },
            Fc {
                name: "FC4".into(),
                in_f: 2048,
                out_f: 1024,
            },
            Relu {
                name: "relu9".into(),
            },
            Fc {
                name: "FC5".into(),
                in_f: 1024,
                out_f: 5,
            },
        ];
        Self {
            input_shape: [3, 227, 227],
            layers,
        }
    }

    /// A width-scaled micro-AlexNet keeping the 5-conv + 5-FC topology.
    ///
    /// Used by the algorithm-level experiments (DESIGN.md §6): full runs of
    /// the RL curriculum complete in seconds on a CPU while exercising the
    /// same code paths and the same L2/L3/L4/E2E freezing semantics.
    /// Pooling stages are inserted adaptively so any input ≥ 8 px works.
    ///
    /// # Panics
    ///
    /// Panics if `input_hw < 8` or `actions == 0`.
    pub fn micro(input_hw: usize, in_c: usize, actions: usize) -> Self {
        assert!(input_hw >= 8, "micro net needs at least 8×8 input");
        assert!(actions > 0 && in_c > 0, "bad micro dimensions");
        use LayerSpec::*;
        let mut layers = Vec::new();
        let mut h = input_hw;
        let mut c = in_c;

        let conv_channels = [8usize, 16, 24, 24, 16];
        for (i, &out_c) in conv_channels.iter().enumerate() {
            let (k, stride, pad) = if i == 0 { (5, 2, 0) } else { (3, 1, 1) };
            layers.push(Conv {
                name: format!("CONV{}", i + 1),
                in_c: c,
                out_c,
                k,
                stride,
                pad,
            });
            h = (h + 2 * pad - k) / stride + 1;
            c = out_c;
            layers.push(Relu {
                name: format!("relu{}", i + 1),
            });
            // AlexNet pools after conv1, conv2 and conv5 — when room allows.
            if matches!(i, 0 | 1 | 4) && h >= 4 {
                layers.push(MaxPool {
                    name: format!("pool{}", i + 1),
                    k: 2,
                    stride: 2,
                });
                h = (h - 2) / 2 + 1;
            }
        }
        layers.push(Flatten {
            name: "flatten".into(),
        });
        let mut features = c * h * h;
        let fc_dims = [128usize, 64, 64, 32];
        for (i, &out_f) in fc_dims.iter().enumerate() {
            layers.push(Fc {
                name: format!("FC{}", i + 1),
                in_f: features,
                out_f,
            });
            layers.push(Relu {
                name: format!("relu{}", i + 6),
            });
            features = out_f;
        }
        layers.push(Fc {
            name: "FC5".into(),
            in_f: features,
            out_f: actions,
        });
        Self {
            input_shape: [in_c, input_hw, input_hw],
            layers,
        }
    }

    /// Total weights (incl. biases) across all layers.
    pub fn total_weights(&self) -> u64 {
        self.layers.iter().map(LayerSpec::weights).sum()
    }

    /// Total weight bytes at 16-bit precision (the platform's storage).
    pub fn total_weight_bytes(&self) -> u64 {
        self.total_weights() * 2
    }

    /// Names of parameterised layers in forward order.
    pub fn param_layer_names(&self) -> Vec<&str> {
        self.layers
            .iter()
            .filter(|l| l.weights() > 0)
            .map(LayerSpec::name)
            .collect()
    }

    /// Per-layer `(name, weight_bytes)` at 16-bit precision, parameterised
    /// layers only — the placement planner's input.
    pub fn layer_weight_bytes(&self) -> Vec<(String, u64)> {
        self.layers
            .iter()
            .filter(|l| l.weights() > 0)
            .map(|l| (l.name().to_string(), l.weights() * 2))
            .collect()
    }

    /// The Fig. 3(a) census: per parameterised layer, input neurons,
    /// weights, % of total, and cumulative % from that layer to the output.
    pub fn weight_census(&self) -> Vec<LayerCensus> {
        let total = self.total_weights() as f64;
        let rows: Vec<(&LayerSpec, u64)> = self
            .layers
            .iter()
            .filter(|l| l.weights() > 0)
            .map(|l| (l, l.weights()))
            .collect();
        let mut census = Vec::with_capacity(rows.len());
        for (i, (l, w)) in rows.iter().enumerate() {
            let cumulative: u64 = rows[i..].iter().map(|(_, w)| *w).sum();
            let neurons = match l {
                LayerSpec::Fc { in_f, .. } => *in_f as u64,
                LayerSpec::Conv { out_c, .. } => *out_c as u64,
                _ => 0,
            };
            census.push(LayerCensus {
                name: l.name().to_string(),
                neurons,
                weights: *w,
                pct_of_total: *w as f64 / total * 100.0,
                pct_cumulative: cumulative as f64 / total * 100.0,
            });
        }
        census
    }

    /// Fraction of weights trained when the last `tail` parameterised
    /// layers are online-trainable (Fig. 3(b): 4 %, 11 %, 26 % for
    /// tail = 2, 3, 4; 100 % for E2E).
    pub fn trainable_fraction_for_tail(&self, tail: usize) -> f64 {
        let weights: Vec<u64> = self
            .layers
            .iter()
            .filter(|l| l.weights() > 0)
            .map(LayerSpec::weights)
            .collect();
        let tail = tail.min(weights.len());
        let trainable: u64 = weights[weights.len() - tail..].iter().sum();
        trainable as f64 / self.total_weights() as f64
    }

    /// Shape-checks the layer chain, returning each layer's output shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if consecutive layers disagree.
    pub fn validate(&self) -> Result<Vec<Vec<usize>>, NnError> {
        let mut shape: Vec<usize> = self.input_shape.to_vec();
        let mut shapes = Vec::with_capacity(self.layers.len());
        for l in &self.layers {
            shape = match l {
                LayerSpec::Conv {
                    name,
                    in_c,
                    out_c,
                    k,
                    stride,
                    pad,
                } => {
                    if shape.len() != 3 || shape[0] != *in_c {
                        return Err(NnError::ShapeMismatch {
                            context: format!("{name}: expected [{in_c},H,W], got {shape:?}"),
                        });
                    }
                    let h = (shape[1] + 2 * pad).checked_sub(*k).ok_or_else(|| {
                        NnError::ShapeMismatch {
                            context: format!("{name}: kernel {k} exceeds input {shape:?}"),
                        }
                    })? / stride
                        + 1;
                    let w = (shape[2] + 2 * pad - k) / stride + 1;
                    vec![*out_c, h, w]
                }
                LayerSpec::MaxPool { name, k, stride } => {
                    if shape.len() != 3 || shape[1] < *k || shape[2] < *k {
                        return Err(NnError::ShapeMismatch {
                            context: format!("{name}: pool {k} exceeds input {shape:?}"),
                        });
                    }
                    vec![
                        shape[0],
                        (shape[1] - k) / stride + 1,
                        (shape[2] - k) / stride + 1,
                    ]
                }
                LayerSpec::Relu { .. } | LayerSpec::Lrn { .. } => shape.clone(),
                LayerSpec::Flatten { .. } => vec![shape.iter().product()],
                LayerSpec::Fc { name, in_f, out_f } => {
                    let flat: usize = shape.iter().product();
                    if flat != *in_f {
                        return Err(NnError::ShapeMismatch {
                            context: format!("{name}: expected {in_f} inputs, got {flat}"),
                        });
                    }
                    vec![*out_f]
                }
            };
            shapes.push(shape.clone());
        }
        Ok(shapes)
    }

    /// Instantiates the network with seeded He initialisation.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not validate (programming error in the spec,
    /// not user input — specs from the constructors always validate).
    pub fn build(&self, seed: u64) -> Network {
        self.validate().expect("network spec must be consistent");
        let mut rng = rng_from_seed(seed);
        let layers: Vec<Box<dyn Layer>> = self
            .layers
            .iter()
            .map(|l| -> Box<dyn Layer> {
                match l {
                    LayerSpec::Conv {
                        name,
                        in_c,
                        out_c,
                        k,
                        stride,
                        pad,
                    } => Box::new(Conv2d::with_rng(
                        name.clone(),
                        *in_c,
                        *out_c,
                        *k,
                        *stride,
                        *pad,
                        &mut rng,
                    )),
                    LayerSpec::Relu { name } => Box::new(Relu::new(name.clone())),
                    LayerSpec::Lrn { name } => Box::new(Lrn::alexnet(name.clone())),
                    LayerSpec::MaxPool { name, k, stride } => {
                        Box::new(MaxPool2d::new(name.clone(), *k, *stride))
                    }
                    LayerSpec::Flatten { name } => Box::new(Flatten::new(name.clone())),
                    LayerSpec::Fc { name, in_f, out_f } => {
                        Box::new(Linear::with_rng(name.clone(), *in_f, *out_f, &mut rng))
                    }
                }
            })
            .collect();
        Network::new(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_census_exact() {
        let spec = NetworkSpec::date19_alexnet();
        let census = spec.weight_census();
        let find = |n: &str| census.iter().find(|c| c.name == n).unwrap();

        // Exact weight counts from Fig. 3(a).
        assert_eq!(find("FC1").weights, 37_752_832);
        assert_eq!(find("FC2").weights, 8_390_656);
        assert_eq!(find("FC3").weights, 4_196_352);
        assert_eq!(find("FC4").weights, 2_098_176);
        assert_eq!(find("FC5").weights, 5_125);
        // Neurons column.
        assert_eq!(find("FC1").neurons, 9216);
        assert_eq!(find("FC2").neurons, 4096);
        assert_eq!(find("FC5").neurons, 1024);
        // Percent columns, to Fig. 3(a) precision.
        assert!((find("FC1").pct_of_total - 67.18).abs() < 0.01);
        assert!((find("FC2").pct_of_total - 14.93).abs() < 0.01);
        assert!((find("FC3").pct_of_total - 7.468).abs() < 0.005);
        assert!((find("FC4").pct_of_total - 3.734).abs() < 0.005);
        assert!((find("FC5").pct_of_total - 0.009).abs() < 0.001);
        assert!((find("FC1").pct_cumulative - 93.33).abs() < 0.01);
        assert!((find("FC2").pct_cumulative - 26.14).abs() < 0.01);
        assert!((find("FC3").pct_cumulative - 11.21).abs() < 0.01);
        assert!((find("FC4").pct_cumulative - 3.743).abs() < 0.005);
    }

    #[test]
    fn total_weights_is_56_190_341() {
        assert_eq!(NetworkSpec::date19_alexnet().total_weights(), 56_190_341);
    }

    #[test]
    fn fig3b_topology_fractions() {
        let spec = NetworkSpec::date19_alexnet();
        // "3 configurations where 4, 11 and 26 % weights are learnt".
        assert!((spec.trainable_fraction_for_tail(2) * 100.0 - 3.743).abs() < 0.01);
        assert!((spec.trainable_fraction_for_tail(3) * 100.0 - 11.21).abs() < 0.01);
        assert!((spec.trainable_fraction_for_tail(4) * 100.0 - 26.14).abs() < 0.01);
        assert_eq!(spec.trainable_fraction_for_tail(10), 1.0);
    }

    #[test]
    fn alexnet_validates_with_known_pyramid() {
        let spec = NetworkSpec::date19_alexnet();
        let shapes = spec.validate().unwrap();
        // CONV1 → 55×55, pool1 → 27, pool2 → 13, pool5 → 6, flatten → 9216.
        assert_eq!(shapes[0], vec![96, 55, 55]);
        assert_eq!(shapes[3], vec![96, 27, 27]);
        assert_eq!(shapes[7], vec![256, 13, 13]);
        assert_eq!(shapes[14], vec![256, 6, 6]);
        assert_eq!(shapes[15], vec![9216]);
        assert_eq!(shapes.last().unwrap(), &vec![5]);
    }

    #[test]
    fn param_layer_names_in_order() {
        let spec = NetworkSpec::date19_alexnet();
        assert_eq!(
            spec.param_layer_names(),
            vec!["CONV1", "CONV2", "CONV3", "CONV4", "CONV5", "FC1", "FC2", "FC3", "FC4", "FC5"]
        );
    }

    #[test]
    fn layer_weight_bytes_match_fig5_totals() {
        let spec = NetworkSpec::date19_alexnet();
        let bytes = spec.layer_weight_bytes();
        let total: u64 = bytes.iter().map(|(_, b)| *b).sum();
        assert_eq!(total, 2 * 56_190_341);
        let fc345: u64 = bytes
            .iter()
            .filter(|(n, _)| matches!(n.as_str(), "FC3" | "FC4" | "FC5"))
            .map(|(_, b)| *b)
            .sum();
        // Fig. 5: "the cumulative sum of these weights is 12.6 MB".
        assert!((fc345 as f64 / 1.0e6 - 12.6).abs() < 0.01);
    }

    #[test]
    fn micro_spec_builds_and_runs_at_various_sizes() {
        for hw in [8usize, 16, 40, 64] {
            let spec = NetworkSpec::micro(hw, 1, 5);
            spec.validate().unwrap_or_else(|e| panic!("hw={hw}: {e}"));
            let net = spec.build(1);
            let x = crate::Tensor::zeros(&[1, 1, hw, hw]);
            let y = net.forward_batch(&x, &mut net.workspace()).clone();
            assert_eq!(y.shape(), &[1, 5], "hw={hw}");
        }
    }

    #[test]
    fn micro_keeps_five_conv_five_fc() {
        let spec = NetworkSpec::micro(40, 1, 5);
        let names = spec.param_layer_names();
        assert_eq!(names.len(), 10);
        assert!(names[..5].iter().all(|n| n.starts_with("CONV")));
        assert!(names[5..].iter().all(|n| n.starts_with("FC")));
    }

    #[test]
    fn invalid_spec_rejected() {
        let mut spec = NetworkSpec::micro(16, 1, 5);
        // Corrupt: make FC5 expect the wrong input width.
        if let Some(LayerSpec::Fc { in_f, .. }) = spec.layers.last_mut() {
            *in_f += 1;
        }
        assert!(spec.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "at least 8×8")]
    fn tiny_micro_panics() {
        let _ = NetworkSpec::micro(4, 1, 5);
    }
}
