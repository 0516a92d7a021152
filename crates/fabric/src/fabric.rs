//! The fabric itself: hosts, registration, and endpoint creation.
//!
//! A [`SimFabric`] owns a set of hosts. Each host has a memory hierarchy (from
//! `twochains-memsim`), a NIC, a simulated virtual-address allocator, and a table of
//! registered memory regions. Hosts are connected all-to-all (the paper's testbed is
//! two hosts back-to-back, which is just the 2-host special case).

use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use twochains_memsim::{CoreBus, SharedHierarchy, TestbedConfig};

use crate::endpoint::Endpoint;
use crate::error::{FabricError, FabricResult};
use crate::fault::{FaultHook, FaultPlan, FaultSnapshot};
use crate::nic::NicModel;
use crate::region::{MemoryRegion, RegionDescriptor};
use crate::rkey::AccessFlags;

/// Identifier of a host attached to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

impl HostId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Base simulated virtual address of the first registration on each host.
const VA_BASE: u64 = 0x0001_0000_0000;

/// Per-host state.
pub(crate) struct HostState {
    pub(crate) id: HostId,
    pub(crate) hierarchy: Arc<SharedHierarchy>,
    pub(crate) nic: NicModel,
    regions: Mutex<Vec<Arc<MemoryRegion>>>,
    va_cursor: Mutex<u64>,
    nonce: AtomicU32,
}

impl std::fmt::Debug for HostState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostState")
            .field("id", &self.id)
            .field("regions", &self.regions.lock().len())
            .finish()
    }
}

impl HostState {
    fn new(id: HostId, cfg: TestbedConfig) -> Self {
        let hierarchy = Arc::new(SharedHierarchy::new(cfg));
        let nic = NicModel::new(Arc::clone(&hierarchy));
        HostState {
            id,
            hierarchy,
            nic,
            regions: Mutex::new(Vec::new()),
            va_cursor: Mutex::new(VA_BASE),
            nonce: AtomicU32::new(1),
        }
    }

    /// Register `len` bytes with the given permissions; allocates a fresh simulated
    /// virtual address range and generates the RKEY.
    pub(crate) fn register(
        &self,
        len: usize,
        flags: AccessFlags,
    ) -> FabricResult<Arc<MemoryRegion>> {
        let base = {
            let mut cursor = self.va_cursor.lock();
            let base = *cursor;
            // Keep registrations page-aligned and spaced, like mmap'd pinned buffers.
            let advance = (len.div_ceil(4096) * 4096) as u64 + 4096;
            *cursor += advance;
            base
        };
        let nonce = self.nonce.fetch_add(1, Ordering::Relaxed);
        let region = MemoryRegion::new(self.id.index(), base, len, flags, nonce)?;
        self.regions.lock().push(Arc::clone(&region));
        Ok(region)
    }

    /// Find the registered region that fully contains `[addr, addr+len)`.
    pub(crate) fn find_region(&self, addr: u64, len: usize) -> FabricResult<Arc<MemoryRegion>> {
        let regions = self.regions.lock();
        for r in regions.iter() {
            let start = r.base_addr();
            let end = start + r.len() as u64;
            if addr >= start && addr + len as u64 <= end {
                return Ok(Arc::clone(r));
            }
        }
        Err(FabricError::NoSuchRegion(addr as u32))
    }
}

#[derive(Default)]
struct FabricInner {
    hosts: RwLock<Vec<Arc<HostState>>>,
    /// Fault plans keyed by directed link `(initiator, target)`. Endpoints
    /// capture the hook for their link at creation time (see [`crate::fault`]).
    faults: Mutex<HashMap<(usize, usize), Arc<FaultHook>>>,
}

/// The simulated RDMA fabric.
#[derive(Clone)]
pub struct SimFabric {
    inner: Arc<FabricInner>,
}

impl std::fmt::Debug for SimFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimFabric")
            .field("hosts", &self.inner.hosts.read().len())
            .finish()
    }
}

impl SimFabric {
    /// Create an empty fabric. Every endpoint times its puts with the paper
    /// testbed's link ([`crate::link`]).
    pub(crate) fn with_defaults() -> Self {
        SimFabric {
            inner: Arc::default(),
        }
    }

    /// Convenience: build the paper's two-server back-to-back testbed. Returns the
    /// fabric and the two host ids.
    pub fn back_to_back(cfg: TestbedConfig) -> (Self, HostId, HostId) {
        let fabric = Self::with_defaults();
        let a = fabric.add_host(cfg.clone());
        let b = fabric.add_host(cfg);
        (fabric, a, b)
    }

    /// Attach a new host with the given machine description. Returns its id.
    pub(crate) fn add_host(&self, cfg: TestbedConfig) -> HostId {
        let mut hosts = self.inner.hosts.write();
        let id = HostId(hosts.len());
        let host = HostState::new(id, cfg);
        hosts.push(Arc::new(host));
        id
    }

    pub(crate) fn host_state(&self, id: HostId) -> FabricResult<Arc<HostState>> {
        self.inner
            .hosts
            .read()
            .get(id.index())
            .cloned()
            .ok_or(FabricError::NoSuchHost(id.index()))
    }

    /// A handle for performing host-local operations (registration, hierarchy access,
    /// NIC toggles).
    pub fn host(&self, id: HostId) -> FabricResult<HostHandle> {
        Ok(HostHandle {
            state: self.host_state(id)?,
        })
    }

    /// Create an endpoint (queue pair) from `from` to `to`.
    ///
    /// If a [`FaultPlan`] was installed on the `(from, to)` link *before* this
    /// call, the endpoint captures it and every put it issues is subject to the
    /// plan's drop/duplicate/reorder schedule.
    pub fn endpoint(&self, from: HostId, to: HostId) -> FabricResult<Endpoint> {
        if from == to {
            return Err(FabricError::InvalidArgument(
                "loopback endpoints are not modelled",
            ));
        }
        let src = self.host_state(from)?;
        let dst = self.host_state(to)?;
        let faults = self
            .inner
            .faults
            .lock()
            .get(&(from.index(), to.index()))
            .map(|hook| hook.attach());
        Ok(Endpoint::new(src, dst, faults))
    }

    /// Install a seeded fault plan on the directed link `from -> to`. Only
    /// endpoints created *after* this call are affected; install the plan before
    /// building the sender side. Installing a second plan on the same link
    /// replaces the first (and resets its counters). The reverse direction is a
    /// separate link — credit and NACK traffic riding `to -> from` stays
    /// reliable unless a plan is installed there too.
    pub fn install_fault_plan(
        &self,
        from: HostId,
        to: HostId,
        plan: FaultPlan,
    ) -> FabricResult<()> {
        if from == to {
            return Err(FabricError::InvalidArgument(
                "loopback endpoints are not modelled",
            ));
        }
        if !plan.is_valid() {
            return Err(FabricError::InvalidArgument(
                "fault probabilities must lie in [0, 1] and sum to at most 1",
            ));
        }
        self.host_state(from)?;
        self.host_state(to)?;
        self.inner
            .faults
            .lock()
            .insert((from.index(), to.index()), Arc::new(FaultHook::new(plan)));
        Ok(())
    }

    /// Aggregate fault counters for the directed link `from -> to`, or `None`
    /// when no plan was ever installed there.
    pub fn fault_counters(&self, from: HostId, to: HostId) -> Option<FaultSnapshot> {
        self.inner
            .faults
            .lock()
            .get(&(from.index(), to.index()))
            .map(|hook| hook.snapshot())
    }
}

/// Handle to one host of the fabric: local registration and hardware toggles.
#[derive(Clone)]
pub struct HostHandle {
    state: Arc<HostState>,
}

impl std::fmt::Debug for HostHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostHandle")
            .field("id", &self.state.id)
            .finish()
    }
}

impl HostHandle {
    /// This host's id.
    pub fn id(&self) -> HostId {
        self.state.id
    }

    /// Register a memory region of `len` bytes for remote access.
    pub fn register(&self, len: usize, flags: AccessFlags) -> FabricResult<Arc<MemoryRegion>> {
        self.state.register(len, flags)
    }

    /// Look up the region containing a descriptor's range (e.g. to read a mailbox the
    /// host owns locally).
    pub fn find_region(&self, desc: &RegionDescriptor) -> FabricResult<Arc<MemoryRegion>> {
        self.state.find_region(desc.base_addr, desc.len)
    }

    /// The host's shared cache-hierarchy levels (shared with the NIC DMA
    /// engine). Internally synchronized — no hierarchy-wide lock exists.
    pub fn hierarchy(&self) -> Arc<SharedHierarchy> {
        Arc::clone(&self.state.hierarchy)
    }

    /// Build the private-level memory bus for `core`: that core's own L1/L2
    /// and prefetcher (lock-free) over this host's shared striped levels. One
    /// live bus per core — see [`SharedHierarchy::core_bus`].
    pub fn core_bus(&self, core: usize) -> CoreBus {
        self.state.hierarchy.core_bus(core)
    }

    /// Toggle LLC stashing for traffic arriving at this host.
    pub fn set_stashing(&self, enabled: bool) {
        self.state.nic.set_stashing(enabled);
    }

    /// Whether inbound stashing is enabled at this host.
    pub fn stashing(&self) -> bool {
        self.state.nic.stashing()
    }

    /// Toggle the hardware prefetcher on this host.
    pub fn set_prefetching(&self, enabled: bool) {
        self.state.hierarchy.set_prefetching(enabled);
    }

    /// Attach or remove a memory stressor on this host (tail-latency experiments).
    pub fn set_stressor(&self, stressor: Option<twochains_memsim::MemoryStressor>) {
        self.state.hierarchy.set_stressor(stressor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_builds_two_hosts() {
        let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::tiny_for_tests());
        assert_ne!(a, b);
        assert!(fabric.host(a).is_ok());
        assert!(fabric.host(b).is_ok());
        assert!(fabric.host(HostId(2)).is_err(), "exactly two hosts");
        assert!(fabric.host(HostId(7)).is_err());
    }

    #[test]
    fn registration_allocates_disjoint_addresses() {
        let (fabric, a, _) = SimFabric::back_to_back(TestbedConfig::tiny_for_tests());
        let host = fabric.host(a).unwrap();
        let r1 = host.register(4096, AccessFlags::rw()).unwrap();
        let r2 = host.register(4096, AccessFlags::rw()).unwrap();
        let (s1, e1) = (r1.base_addr(), r1.base_addr() + r1.len() as u64);
        let (s2, e2) = (r2.base_addr(), r2.base_addr() + r2.len() as u64);
        assert!(e1 <= s2 || e2 <= s1, "regions must not overlap");
        assert_ne!(r1.rkey(), r2.rkey());
    }

    #[test]
    fn find_region_by_descriptor() {
        let (fabric, a, _) = SimFabric::back_to_back(TestbedConfig::tiny_for_tests());
        let host = fabric.host(a).unwrap();
        let r = host.register(1024, AccessFlags::rwx()).unwrap();
        let found = host.find_region(&r.descriptor()).unwrap();
        assert!(Arc::ptr_eq(&found, &r));
    }

    #[test]
    fn loopback_endpoints_rejected() {
        let (fabric, a, _) = SimFabric::back_to_back(TestbedConfig::tiny_for_tests());
        assert!(fabric.endpoint(a, a).is_err());
    }

    #[test]
    fn stash_toggle_per_host() {
        let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::tiny_for_tests());
        let ha = fabric.host(a).unwrap();
        let hb = fabric.host(b).unwrap();
        ha.set_stashing(false);
        assert!(!ha.stashing());
        assert!(hb.stashing(), "other host unaffected");
    }

    #[test]
    fn multi_host_fabric() {
        let fabric = SimFabric::with_defaults();
        let ids: Vec<_> = (0..4)
            .map(|_| fabric.add_host(TestbedConfig::tiny_for_tests()))
            .collect();
        assert!(fabric.host(HostId(3)).is_ok() && fabric.host(HostId(4)).is_err());
        // all-to-all endpoints work
        for &x in &ids {
            for &y in &ids {
                if x != y {
                    assert!(fabric.endpoint(x, y).is_ok());
                }
            }
        }
    }
}
