//! Mapping requests: what a client submits to the batch service.

use crate::batcher::LatencyClass;
use ftmap_core::FtMapConfig;
use ftmap_molecule::{ForceField, ProbeLibrary, ProbeType, SyntheticProtein};

/// One client request: map `protein` with the given probes under `config`.
///
/// Requests against the same receptor (same protein content and docking-grid
/// geometry) are *compatible*: the batcher groups them so their probe shards
/// interleave on the device pool and they share one resident grid set per
/// device. Probe selection, minimization depth and clustering radius may
/// differ freely within a batch — they are per-job concerns.
#[derive(Debug, Clone)]
pub struct MappingRequest {
    /// The receptor protein.
    pub protein: SyntheticProtein,
    /// Force field used for probes and minimization.
    pub ff: ForceField,
    /// Probes to map (in order; order is part of the job's identity).
    pub probes: Vec<ProbeType>,
    /// Pipeline configuration (mode, docking, minimization, clustering).
    pub config: FtMapConfig,
    /// Free-form client label, echoed on the job handle and report.
    pub tag: String,
    /// Latency class: interactive requests form batches ahead of bulk work
    /// and overtake it at phase boundaries (aging-bounded — see
    /// `crate::batcher`). Scheduling only; results never depend on it.
    /// Defaults to [`LatencyClass::Bulk`].
    pub class: LatencyClass,
    /// Client-supplied trace id for end-to-end causal tracing. When `None`
    /// (the default) the service stamps the job id at admission, so every job
    /// carries *some* trace id through admit → batch-form → scheduler items →
    /// resolve. Observability only; results never depend on it.
    pub trace_id: Option<u64>,
    /// Tenant identity for fairness accounting: weighted per-tenant quotas
    /// and the in-flight counters the batcher enforces at batch formation
    /// ([`crate::config::AdmissionConfig`]). `None` (the default) falls back
    /// to [`tag`](MappingRequest::tag), so single-tenant callers need not set
    /// anything. Scheduling only; results never depend on it.
    pub tenant: Option<String>,
    /// Per-request completion deadline in modeled seconds from admission,
    /// overriding the class-wide default in
    /// [`crate::config::AdmissionConfig`]. The admission controller compares
    /// its modeled latency estimate against this bound and reprioritizes,
    /// degrades, or refuses the request when it cannot be met.
    pub deadline_s: Option<f64>,
}

impl MappingRequest {
    /// A request with an empty tag.
    pub fn new(
        protein: SyntheticProtein,
        ff: ForceField,
        probes: Vec<ProbeType>,
        config: FtMapConfig,
    ) -> Self {
        MappingRequest {
            protein,
            ff,
            probes,
            config,
            tag: String::new(),
            class: LatencyClass::Bulk,
            trace_id: None,
            tenant: None,
            deadline_s: None,
        }
    }

    /// Sets the client tag.
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Sets the latency class.
    pub fn with_class(mut self, class: LatencyClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the tenant identity the fairness controls account this request
    /// under (see [`tenant`](MappingRequest::tenant)).
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// The tenant label fairness accounting uses: the explicit
    /// [`tenant`](MappingRequest::tenant) when set, the
    /// [`tag`](MappingRequest::tag) otherwise.
    pub(crate) fn tenant_label(&self) -> &str {
        self.tenant.as_deref().unwrap_or(&self.tag)
    }

    /// The probe library this request maps.
    pub fn library(&self) -> ProbeLibrary {
        ProbeLibrary::subset(&self.ff, &self.probes)
    }

    /// Batching fingerprint: requests with equal fingerprints build identical
    /// receptor grids (same atoms, same grid geometry, same desolvation-term
    /// count) and may share a batch.
    ///
    /// This is a *host-side grouping* key over the request inputs; the
    /// device-side residency key is the content hash of the built grids
    /// (`ReceptorGrids::content_key`), computed once per batch.
    pub fn receptor_fingerprint(&self) -> u64 {
        let mut hash = gpu_sim::Fnv1a::new();
        hash.write_u64(self.config.docking.grid_dim as u64);
        hash.write_f64(self.config.docking.spacing);
        hash.write_u64(self.config.docking.n_desolv as u64);
        for atom in &self.protein.atoms {
            hash.write_f64(atom.position.x);
            hash.write_f64(atom.position.y);
            hash.write_f64(atom.position.z);
            hash.write_f64(atom.charge);
            hash.write_u64(atom.kind as u64);
        }
        hash.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftmap_core::PipelineMode;
    use ftmap_molecule::ProteinSpec;

    fn request(spec: &ProteinSpec, grid_dim: usize) -> MappingRequest {
        let ff = ForceField::charmm_like();
        let protein = SyntheticProtein::generate(spec, &ff);
        let mut config = FtMapConfig::small_test(PipelineMode::Accelerated);
        config.docking.grid_dim = grid_dim;
        MappingRequest::new(protein, ff, vec![ProbeType::Ethanol], config)
    }

    #[test]
    fn fingerprint_groups_same_receptor() {
        let spec = ProteinSpec::small_test();
        let a = request(&spec, 16);
        let mut b = request(&spec, 16);
        // Different probes / tag / minimization do not split a batch.
        b.probes = vec![ProbeType::Benzene, ProbeType::Urea];
        b.tag = "other".into();
        b.config.conformations_per_probe = 7;
        assert_eq!(a.receptor_fingerprint(), b.receptor_fingerprint());
    }

    #[test]
    fn class_is_scheduling_metadata_not_identity() {
        // Latency class must never split a batch key or change a result key:
        // it defaults to Bulk and is carried verbatim.
        let spec = ProteinSpec::small_test();
        let a = request(&spec, 16);
        let b = request(&spec, 16).with_class(LatencyClass::Interactive);
        assert_eq!(a.class, LatencyClass::Bulk);
        assert_eq!(b.class, LatencyClass::Interactive);
        assert_eq!(a.receptor_fingerprint(), b.receptor_fingerprint());
        assert_eq!(LatencyClass::Interactive.priority(), 0);
        assert_eq!(LatencyClass::Bulk.priority(), 1);
    }

    #[test]
    fn fingerprint_splits_different_receptor_or_grid() {
        let spec = ProteinSpec::small_test();
        let a = request(&spec, 16);
        // Different grid geometry ⇒ different receptor grids ⇒ new batch.
        let b = request(&spec, 32);
        assert_ne!(a.receptor_fingerprint(), b.receptor_fingerprint());
        // Different protein ⇒ new batch.
        let mut other = ProteinSpec::small_test();
        other.seed = 1234;
        let c = request(&other, 16);
        assert_ne!(a.receptor_fingerprint(), c.receptor_fingerprint());
    }
}
