//! SFI-isolated packet pipelines — the integration §3 evaluates.
//!
//! "We use our SFI library to isolate every pipeline component in a
//! separate protection domain, replacing function calls with remote
//! invocations." An [`IsolatedPipeline`] holds one protection domain per
//! stage; a batch *moves* into each stage's domain through its
//! [`RRef`] and moves out with the return value — zero copies, enforced
//! by ownership.
//!
//! Fault handling follows the paper: a panicking stage unwinds to the
//! invocation boundary, its domain's reference table is cleared, and the
//! registered recovery function rebuilds the operator from its factory.
//! The caller sees `Err(RpcError::Fault)` for that batch (the batch
//! itself is lost with the domain — it had been moved in) and calls
//! [`IsolatedPipeline::heal`] to pick up the recovered stage's fresh
//! remote reference, making the failure transparent from then on.

use rbs_core::sync::Mutex;
use rbs_netfx::batch::PacketBatch;
use rbs_netfx::pipeline::Operator;
use rbs_sfi::{Domain, DomainManager, RRef, RpcError};
use std::sync::Arc;

/// A boxed, domain-residing pipeline stage.
pub type BoxedOperator = Box<dyn Operator + Send>;

/// A factory rebuilding a stage's operator after a fault.
pub type OperatorFactory = Arc<dyn Fn() -> BoxedOperator + Send + Sync>;

struct IsolatedStage {
    domain: Domain,
    rref: RRef<BoxedOperator>,
    /// Recovery deposits the replacement reference here; [`heal`]
    /// collects it. Kept out of the data path so remote invocation cost
    /// (the quantity Figure 2 measures) stays untouched.
    mailbox: Arc<Mutex<Option<RRef<BoxedOperator>>>>,
}

/// A pipeline whose every stage runs in its own protection domain.
pub struct IsolatedPipeline {
    manager: DomainManager,
    stages: Vec<IsolatedStage>,
}

impl IsolatedPipeline {
    /// An empty isolated pipeline with its own domain manager.
    pub fn new() -> Self {
        Self {
            manager: DomainManager::new(),
            stages: Vec::new(),
        }
    }

    /// Uses an existing manager (so callers can apply policies/quotas).
    pub fn with_manager(manager: DomainManager) -> Self {
        Self {
            manager,
            stages: Vec::new(),
        }
    }

    /// An empty isolated pipeline whose stage domains run on the given
    /// isolation backend (see [`rbs_sfi::IsolationBackend`]). The
    /// default [`BackendKind::TypedSfi`](rbs_sfi::BackendKind::TypedSfi)
    /// is the paper's zero-cost model; the others charge each remote
    /// invocation per their cost models.
    pub fn with_backend(kind: rbs_sfi::BackendKind) -> Self {
        Self::with_manager(DomainManager::with_backend_kind(kind))
    }

    /// Appends a stage: creates a protection domain named `name`, builds
    /// the operator inside it from `factory`, exports it as an [`RRef`],
    /// and registers recovery so a faulted stage rebuilds itself.
    pub fn add_stage(
        &mut self,
        name: &str,
        factory: impl Fn() -> BoxedOperator + Send + Sync + 'static,
    ) -> Result<(), rbs_sfi::domain::DomainError> {
        let factory: OperatorFactory = Arc::new(factory);
        let domain = self.manager.create_domain(name)?;
        let rref = domain
            .execute(|| RRef::new(&domain, factory()))
            .expect("a fresh domain accepts execute");
        let mailbox: Arc<Mutex<Option<RRef<BoxedOperator>>>> = Arc::new(Mutex::new(None));
        {
            let mailbox = Arc::clone(&mailbox);
            let factory = Arc::clone(&factory);
            domain.set_recovery(move |d: &Domain| {
                let fresh = RRef::new(d, factory());
                *mailbox.lock() = Some(fresh);
            });
        }
        self.stages.push(IsolatedStage {
            domain,
            rref,
            mailbox,
        });
        Ok(())
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stages' domains (for stats and lifecycle inspection).
    pub fn domains(&self) -> Vec<&Domain> {
        self.stages.iter().map(|s| &s.domain).collect()
    }

    /// The manager owning the stage domains.
    pub fn manager(&self) -> &DomainManager {
        &self.manager
    }

    /// Runs one batch to completion through every stage via remote
    /// invocation. The batch moves across each domain boundary; on a
    /// stage fault it is lost inside the failed domain and the error is
    /// surfaced ("return an error code to the caller").
    pub fn run_batch(&mut self, batch: PacketBatch) -> Result<PacketBatch, RpcError> {
        let mut current = batch;
        for stage in &mut self.stages {
            current = stage
                .rref
                .invoke_mut_named("process", move |op| op.process(current))?;
        }
        Ok(current)
    }

    /// Collects replacement references deposited by stage recovery.
    /// Returns how many stages were healed.
    pub fn heal(&mut self) -> usize {
        let mut healed = 0;
        for stage in &mut self.stages {
            if let Some(fresh) = stage.mailbox.lock().take() {
                stage.rref = fresh;
                healed += 1;
            }
        }
        healed
    }

    /// Convenience wrapper: run a batch, and if a stage faulted, heal
    /// the pipeline so the *next* batch flows again. The faulted batch
    /// is still reported as an error — SFI contains faults, it does not
    /// resurrect in-flight data.
    pub fn run_batch_healing(&mut self, batch: PacketBatch) -> Result<PacketBatch, RpcError> {
        match self.run_batch(batch) {
            Ok(b) => Ok(b),
            Err(e) => {
                self.heal();
                Err(e)
            }
        }
    }
}

impl Default for IsolatedPipeline {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbs_netfx::headers::ethernet::MacAddr;
    use rbs_netfx::operators::{NullFilter, PanicAfter, TtlDecrement};
    use rbs_netfx::packet::Packet;
    use rbs_sfi::DomainState;
    use std::net::Ipv4Addr;

    fn batch(n: usize) -> PacketBatch {
        (0..n)
            .map(|i| {
                Packet::build_udp(
                    MacAddr::ZERO,
                    MacAddr::ZERO,
                    Ipv4Addr::new(10, 0, 0, 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    1000 + i as u16,
                    80,
                    16,
                )
            })
            .collect()
    }

    fn null_pipeline(stages: usize) -> IsolatedPipeline {
        let mut p = IsolatedPipeline::new();
        for i in 0..stages {
            p.add_stage(&format!("null-{i}"), || Box::new(NullFilter::new()))
                .unwrap();
        }
        p
    }

    #[test]
    fn batches_flow_through_isolated_stages() {
        let mut p = null_pipeline(5);
        assert_eq!(p.len(), 5);
        let out = p.run_batch(batch(16)).unwrap();
        assert_eq!(out.len(), 16);
        for d in p.domains() {
            assert_eq!(d.stats().invocations(), 2, "execute + one process call");
        }
    }

    #[test]
    fn stages_actually_process() {
        let mut p = IsolatedPipeline::new();
        p.add_stage("ttl", || Box::new(TtlDecrement::new()))
            .unwrap();
        let out = p.run_batch(batch(4)).unwrap();
        assert!(out.iter().all(|pk| pk.ipv4().unwrap().ttl() == 63));
    }

    #[test]
    fn fault_loses_batch_then_heals() {
        let mut p = IsolatedPipeline::new();
        p.add_stage("flaky", || Box::new(PanicAfter::new(2)))
            .unwrap();
        p.add_stage("null", || Box::new(NullFilter::new())).unwrap();

        assert!(p.run_batch(batch(1)).is_ok());
        assert!(p.run_batch(batch(1)).is_ok());
        // Third batch trips the injected fault.
        let err = p.run_batch(batch(1)).unwrap_err();
        assert!(matches!(err, RpcError::Fault { .. }));
        // Recovery already ran inside the fault path; the domain is
        // active again and the mailbox holds a fresh reference.
        assert_eq!(p.domains()[0].state(), DomainState::Active);
        assert_eq!(p.heal(), 1);
        // Traffic flows again (the factory built a fresh PanicAfter(2)).
        assert!(p.run_batch(batch(1)).is_ok());
    }

    /// A factory whose first-built operator faults on its first batch;
    /// rebuilt instances are healthy — "re-initialize the domain from
    /// clean state".
    fn faulty_once_factory() -> impl Fn() -> super::BoxedOperator + Send + Sync + 'static {
        let built = std::sync::atomic::AtomicUsize::new(0);
        move || -> super::BoxedOperator {
            if built.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0 {
                Box::new(PanicAfter::new(0))
            } else {
                Box::new(NullFilter::new())
            }
        }
    }

    #[test]
    fn run_batch_healing_auto_collects() {
        let mut p = IsolatedPipeline::new();
        p.add_stage("flaky", faulty_once_factory()).unwrap();
        assert!(p.run_batch_healing(batch(1)).is_err());
        // Healed inline: next batch is fine.
        assert!(p.run_batch_healing(batch(1)).is_ok());
    }

    #[test]
    fn other_stages_unaffected_by_one_fault() {
        let mut p = IsolatedPipeline::new();
        p.add_stage("a", || Box::new(NullFilter::new())).unwrap();
        p.add_stage("flaky", faulty_once_factory()).unwrap();
        p.add_stage("c", || Box::new(NullFilter::new())).unwrap();
        let _ = p.run_batch_healing(batch(1));
        assert_eq!(p.domains()[0].state(), DomainState::Active);
        assert_eq!(p.domains()[2].state(), DomainState::Active);
        assert_eq!(
            p.domains()[2].stats().invocations(),
            1,
            "stage c never saw the batch"
        );
        assert!(p.run_batch(batch(3)).is_ok());
    }

    #[test]
    fn generation_counts_recoveries() {
        let mut p = IsolatedPipeline::new();
        p.add_stage("flaky", || Box::new(PanicAfter::new(0)))
            .unwrap();
        for round in 1..=3u64 {
            assert!(p.run_batch_healing(batch(1)).is_err());
            assert_eq!(p.domains()[0].generation(), round);
        }
        assert_eq!(p.domains()[0].stats().faults(), 3);
        assert_eq!(p.domains()[0].stats().recoveries(), 3);
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut p = IsolatedPipeline::new();
        assert!(p.is_empty());
        let out = p.run_batch(batch(2)).unwrap();
        assert_eq!(out.len(), 2);
    }
}
