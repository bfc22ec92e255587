//! # bddfc-finite — the Theorem 2 pipeline
//!
//! Turns the paper's existence proof into an algorithm producing
//! *certified* finite countermodels:
//!
//! * query hiding (♠4) and head normalization (♠5) ([`transform`]);
//! * the skeleton `S(D,T)` with Lemma 3 validation ([`mod@skeleton`]);
//! * Very Treelike DAGs, Definition 11 ([`vtdag`]);
//! * the end-to-end pipeline with the finite-prefix substitution
//!   ([`pipeline`]);
//! * the independent certifier ([`certify`]).

#![warn(missing_docs)]

pub mod certify;
pub mod pipeline;
pub mod skeleton;
pub mod transform;
pub mod vtdag;

pub use certify::{certify_countermodel, CertFailure};
pub use pipeline::{
    finite_countermodel, finite_countermodel_with, lemma5_saturation, Certified, FcConfig,
    FcOutcome,
};
pub use skeleton::{analyze_skeleton, skeleton, skeleton_flesh_preds, SkeletonReport};
pub use transform::{hide_query, normalize_spade5, HiddenQuery, TransformError};
pub use vtdag::{is_vtdag, vtdag_violations, VtdagViolation};
