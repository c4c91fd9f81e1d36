//! Root meta-crate of the COBRA reproduction workspace.
//!
//! Re-exports the workspace crates under one roof so the runnable
//! examples in `examples/` and the integration tests in `tests/` read
//! like downstream user code. The one-import entry point is the
//! declarative `SimSpec`: any process spec × any graph spec, executed
//! by the unified Monte-Carlo engine:
//!
//! ```
//! use cobra_repro::prelude::*;
//!
//! // COBRA b=2 cover time on the Petersen graph, 10 seeded trials.
//! let spec = SimSpec::parse("petersen", "cobra:b2").unwrap().with_trials(10);
//! let est = spec.measure().unwrap().into_stopping().unwrap();
//! assert_eq!(est.censored, 0);
//!
//! // The same scenario against a caller-built graph, trial by trial.
//! let g = generators::petersen();
//! let own = SimSpec::new(&g, "cobra:b2".parse().unwrap()).with_trials(10);
//! assert_eq!(spec.outcomes().unwrap(), own.outcomes().unwrap());
//! ```

pub use cobra;
pub use cobra_campaign;
pub use cobra_exact;
pub use cobra_graph;
pub use cobra_mc;
pub use cobra_obs;
pub use cobra_process;
pub use cobra_spectral;
pub use cobra_stats;
pub use cobra_util;

/// Everything an example needs, one import away.
pub mod prelude {
    pub use cobra::sim::{
        GraphSource, HitTarget, Measurement, Objective, SimError, SimSpec, StoppingEstimate,
        TrajectoryEstimate, TrialOutcome,
    };
    pub use cobra_campaign::{run_sweep, PointRecord, Store, SweepSpec};
    pub use cobra_graph::{
        generators, props, Backend, BuiltTopology, Graph, GraphShape, GraphSpec, Topology, VertexId,
    };
    pub use cobra_mc::{Engine, Observer, StopWhen};
    pub use cobra_process::{ProcessSpec, ProcessState, ProcessView, StepCtx};
    pub use cobra_util::BitSet;
}
