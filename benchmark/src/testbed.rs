//! The two testbed shapes the workloads run on, built through the public API
//! only, with one span around each layer's part of the set-up.

use twochains::builtin::benchmark_package;
use twochains::fabric::{FaultPlan, HostId, SimFabric};
use twochains::linker::Package;
use twochains::mailbox::MailboxTarget;
use twochains::memsim::TestbedConfig;
use twochains::{RuntimeConfig, SenderFleet, TwoChainsHost, TwoChainsSender};

use crate::trace::Tracer;

/// The receiver configuration every workload uses: the paper's defaults, one
/// shard per sender lane, shard-local execution, and the given mailbox size.
/// Nothing else is tuned, so a later change to a default shows.
pub fn config(lanes: usize, frame_capacity: usize) -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_default()
        .with_shards(lanes)
        .with_sender_streams(lanes)
        .with_shard_local_space();
    cfg.frame_capacity = frame_capacity;
    cfg.completion_window = cfg.total_mailboxes();
    cfg
}

fn package(tracer: &mut Tracer) -> Package {
    tracer.span("linker.package_build", || {
        benchmark_package().expect("the benchmark package builds")
    })
}

fn host(fabric: &SimFabric, id: HostId, cfg: RuntimeConfig, tracer: &mut Tracer) -> TwoChainsHost {
    let mut host = tracer.span("host.new", || {
        TwoChainsHost::new(fabric, id, cfg).expect("the host configuration is valid")
    });
    let pkg = package(tracer);
    tracer.span("linker.install", || {
        host.install_package(pkg).expect("the package installs")
    });
    host
}

/// A receiver fed by a [`SenderFleet`]: the shape of the streaming and
/// pipelined workloads.
pub struct FleetBed {
    pub fabric: SimFabric,
    pub sender_id: HostId,
    pub host_id: HostId,
    pub host: TwoChainsHost,
    pub fleet: SenderFleet,
}

impl FleetBed {
    /// `plan` is installed before the fleet connects: an endpoint takes its
    /// link's fault plan when it is created.
    pub fn build(cfg: RuntimeConfig, plan: Option<FaultPlan>, tracer: &mut Tracer) -> Self {
        let (fabric, sender_id, host_id) = SimFabric::back_to_back(TestbedConfig::cluster2021());
        let mut host = host(&fabric, host_id, cfg, tracer);
        if let Some(plan) = plan {
            fabric
                .install_fault_plan(sender_id, host_id, plan)
                .expect("the fault plan is valid");
        }
        let pkg = package(tracer);
        let fleet = tracer.span("fleet.connect", || {
            SenderFleet::connect_fleet(&fabric, sender_id, &mut host, pkg)
                .expect("the fleet connects")
        });
        FleetBed {
            fabric,
            sender_id,
            host_id,
            host,
            fleet,
        }
    }
}

/// A receiver fed by one bare [`TwoChainsSender`], which takes the post time
/// of every message from its caller: the shape of the one-message-at-a-time
/// and open-loop workloads.
pub struct SingleBed {
    pub host: TwoChainsHost,
    pub sender: TwoChainsSender,
}

impl SingleBed {
    pub fn build(cfg: RuntimeConfig, tracer: &mut Tracer) -> Self {
        let (fabric, sender_id, host_id) = SimFabric::back_to_back(TestbedConfig::cluster2021());
        let host = host(&fabric, host_id, cfg, tracer);
        let pkg = package(tracer);
        let sender = tracer.span("fleet.connect", || {
            let endpoint = fabric
                .endpoint(sender_id, host_id)
                .expect("the hosts are linked");
            let mut sender = TwoChainsSender::new(endpoint, pkg);
            let ids: Vec<_> = host
                .package()
                .expect("a package is installed")
                .jams()
                .map(|(id, _)| id)
                .collect();
            for id in ids {
                let got = host.export_got(id).expect("the receiver resolves its GOT");
                sender.set_remote_got(id, &got);
            }
            sender
        });
        SingleBed { host, sender }
    }

    pub fn target(&self, bank: usize, slot: usize) -> MailboxTarget {
        self.host
            .mailbox_target(bank, slot)
            .expect("the mailbox exists")
    }
}
