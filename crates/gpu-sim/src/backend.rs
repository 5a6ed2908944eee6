//! The execution-backend seam.
//!
//! The pipeline runs the same two phases — rigid docking and energy
//! minimization — on either the host (the original FTMap structure) or the
//! modeled GPU (the paper's contribution). Each phase crate has its own notion
//! of "which engine": `piper_dock::DockingEngineKind` for correlation and
//! `ftmap_energy::minimize::EvaluationPath` for evaluation. [`ExecutionBackend`]
//! is the single switch the pipeline flips, and [`BackendSelect`] is the trait
//! those per-phase enums implement so the pipeline selects both engines through
//! one seam instead of two ad-hoc mappings.

/// Which substrate executes an accelerated phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecutionBackend {
    /// Host execution — the original serial FTMap structure.
    Cpu,
    /// The modeled CUDA-class device (the paper's GPU mapping).
    Gpu,
}

impl ExecutionBackend {
    /// Both backends, for tests that must exercise each end-to-end.
    pub const ALL: [ExecutionBackend; 2] = [ExecutionBackend::Cpu, ExecutionBackend::Gpu];

    /// True for the GPU backend.
    pub fn is_gpu(self) -> bool {
        matches!(self, ExecutionBackend::Gpu)
    }
}

impl std::fmt::Display for ExecutionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionBackend::Cpu => write!(f, "cpu"),
            ExecutionBackend::Gpu => write!(f, "gpu"),
        }
    }
}

/// Per-phase engine choices selectable through the backend seam.
///
/// Implemented by each phase's engine enum; the pipeline then picks every
/// phase's engine from one [`ExecutionBackend`] value:
///
/// ```
/// use gpu_sim::{BackendSelect, ExecutionBackend};
///
/// #[derive(Debug, PartialEq)]
/// enum Engine { Host, Device }
///
/// impl BackendSelect for Engine {
///     fn for_backend(backend: ExecutionBackend) -> Self {
///         match backend {
///             ExecutionBackend::Cpu => Engine::Host,
///             ExecutionBackend::Gpu => Engine::Device,
///         }
///     }
/// }
///
/// assert_eq!(Engine::for_backend(ExecutionBackend::Gpu), Engine::Device);
/// ```
pub trait BackendSelect: Sized {
    /// The engine this type uses on the given backend.
    fn for_backend(backend: ExecutionBackend) -> Self;

    /// Shorthand for `Self::for_backend(ExecutionBackend::Cpu)`.
    fn cpu() -> Self {
        Self::for_backend(ExecutionBackend::Cpu)
    }

    /// Shorthand for `Self::for_backend(ExecutionBackend::Gpu)`.
    fn gpu() -> Self {
        Self::for_backend(ExecutionBackend::Gpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Toy {
        Host,
        Device,
    }

    impl BackendSelect for Toy {
        fn for_backend(backend: ExecutionBackend) -> Self {
            match backend {
                ExecutionBackend::Cpu => Toy::Host,
                ExecutionBackend::Gpu => Toy::Device,
            }
        }
    }

    #[test]
    fn select_shorthands_match_for_backend() {
        assert_eq!(Toy::cpu(), Toy::Host);
        assert_eq!(Toy::gpu(), Toy::Device);
        assert_eq!(Toy::for_backend(ExecutionBackend::Gpu), Toy::Device);
    }

    #[test]
    fn backend_basics() {
        assert!(ExecutionBackend::Gpu.is_gpu());
        assert!(!ExecutionBackend::Cpu.is_gpu());
        assert_eq!(ExecutionBackend::ALL.len(), 2);
        assert_eq!(ExecutionBackend::Cpu.to_string(), "cpu");
        assert_eq!(ExecutionBackend::Gpu.to_string(), "gpu");
    }
}
