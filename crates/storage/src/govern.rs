//! Global memory governance for materializing sinks.
//!
//! Every query gets one [`MemoryGovernor`] (when
//! `QueryOptions::memory_budget_bytes` / `RPT_MEMORY_BUDGET` is set) that
//! all materializing sink states — buffer, hash-build, aggregate, sort —
//! register with. Each registrant reports its resident byte footprint after
//! every append; when the *sum* across registrants exceeds the budget the
//! governor flags spill victims largest-resident-first (ties broken by
//! lowest registration id, so victim choice is deterministic under
//! single-threaded execution). A flagged registrant evicts its resident
//! chunks to its spill file on its own thread the next time it touches the
//! governor — the governor never moves data itself, it only decides *who*
//! spills, replacing the old world where each `SpillBuffer` enforced an
//! isolated per-buffer cap and one over-cap sink could thrash while another
//! hoarded the rest of the budget.
//!
//! Registrants that cannot spill (hash-join builds and aggregate group
//! tables, which must stay addressable in memory) register as
//! *unevictable*: they contribute memory pressure — pushing the evictable
//! buffers out earlier — but are never picked as victims.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-registrant accounting inside the governor.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    resident: usize,
    evictable: bool,
    alive: bool,
    spill_requested: bool,
}

/// A query-wide memory budget shared by all materializing sink states.
#[derive(Debug)]
pub struct MemoryGovernor {
    budget: usize,
    slots: Mutex<Vec<Slot>>,
    evictions: AtomicU64,
}

impl MemoryGovernor {
    pub fn new(budget_bytes: usize) -> MemoryGovernor {
        MemoryGovernor {
            budget: budget_bytes,
            slots: Mutex::new(Vec::new()),
            evictions: AtomicU64::new(0),
        }
    }

    /// Victim flags raised so far (drives `spill_victim_evictions`).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Register one sink state (a per-worker, per-partition buffer or an
    /// unevictable build-side table). The handle reports residency and
    /// receives spill requests; dropping it releases the registration.
    pub fn register(self: &Arc<Self>, evictable: bool) -> GovernedHandle {
        let mut slots = match self.slots.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        let id = slots.len();
        slots.push(Slot {
            resident: 0,
            evictable,
            alive: true,
            spill_requested: false,
        });
        GovernedHandle {
            gov: Arc::clone(self),
            id,
        }
    }

    /// Current total resident bytes across live registrants.
    pub fn resident_bytes(&self) -> usize {
        let slots = match self.slots.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        slots.iter().filter(|s| s.alive).map(|s| s.resident).sum()
    }

    /// Update slot `id`'s residency, run victim selection if the total
    /// exceeds the budget, and report whether *this* slot must spill now.
    fn update(&self, id: usize, resident: usize) -> bool {
        let mut slots = match self.slots.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        slots[id].resident = resident;
        let mut total: usize = slots.iter().filter(|s| s.alive).map(|s| s.resident).sum();
        // Largest-resident-first victim selection; each victim is assumed
        // to free its full residency once it services the flag.
        while total > self.budget {
            let victim = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.alive && s.evictable && !s.spill_requested && s.resident > 0)
                .max_by_key(|(i, s)| (s.resident, usize::MAX - i))
                .map(|(i, _)| i);
            let Some(v) = victim else { break };
            slots[v].spill_requested = true;
            total -= slots[v].resident;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        if slots[id].spill_requested {
            slots[id].spill_requested = false;
            true
        } else {
            false
        }
    }

    /// Consume a pending spill request for slot `id` without changing its
    /// reported residency.
    fn take_request(&self, id: usize) -> bool {
        let mut slots = match self.slots.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        std::mem::take(&mut slots[id].spill_requested)
    }

    fn release(&self, id: usize) {
        let mut slots = match self.slots.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        slots[id].alive = false;
        slots[id].resident = 0;
        slots[id].spill_requested = false;
    }
}

/// One registrant's handle on the governor. Clonable across the sink's
/// moves between workers; releases the registration on last drop.
#[derive(Debug)]
pub struct GovernedHandle {
    gov: Arc<MemoryGovernor>,
    id: usize,
}

impl GovernedHandle {
    /// Report the registrant's current resident bytes. Returns `true` when
    /// the governor (now or since the last call) picked this registrant as
    /// a spill victim — the caller must evict its resident data.
    pub fn update(&self, resident_bytes: usize) -> bool {
        self.gov.update(self.id, resident_bytes)
    }

    /// Poll for a victim flag without changing reported residency.
    pub fn take_request(&self) -> bool {
        self.gov.take_request(self.id)
    }
}

impl Drop for GovernedHandle {
    fn drop(&mut self) {
        self.gov.release(self.id);
    }
}

/// Remove orphaned `rpt_spill_*` files left in `dir` by dead processes
/// (e.g. a crashed or SIGKILLed run whose `Drop` cleanup never ran). A
/// file is swept only when its embedded PID provably no longer exists
/// (`/proc/<pid>` absent); on platforms without `/proc` nothing is removed.
/// Returns the number of files removed.
pub fn sweep_orphan_spill_files(dir: &std::path::Path) -> usize {
    if !std::path::Path::new("/proc").is_dir() {
        return 0;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let own_pid = std::process::id();
    let mut removed = 0usize;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(rest) = name.strip_prefix("rpt_spill_") else {
            continue;
        };
        let Some(pid) = rest.split('_').next().and_then(|p| p.parse::<u32>().ok()) else {
            continue;
        };
        if pid == own_pid || std::path::Path::new(&format!("/proc/{pid}")).exists() {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_budget_never_flags() {
        let gov = Arc::new(MemoryGovernor::new(1000));
        let a = gov.register(true);
        let b = gov.register(true);
        assert!(!a.update(400));
        assert!(!b.update(500));
        assert_eq!(gov.evictions(), 0);
        assert_eq!(gov.resident_bytes(), 900);
    }

    #[test]
    fn largest_resident_is_victim_first() {
        let gov = Arc::new(MemoryGovernor::new(1000));
        let small = gov.register(true);
        let big = gov.register(true);
        assert!(!small.update(300));
        // big pushes the total to 1200: big itself is the largest resident,
        // so the updating slot is flagged and told to spill inline.
        assert!(big.update(900));
        assert_eq!(gov.evictions(), 1);
        // small was never flagged.
        assert!(!small.take_request());
    }

    #[test]
    fn remote_victim_flag_is_sticky_until_polled() {
        let gov = Arc::new(MemoryGovernor::new(1000));
        let big = gov.register(true);
        let small = gov.register(true);
        assert!(!big.update(800));
        // small's update overflows the budget; big (largest) is the victim
        // and learns about it at its next governor touch.
        assert!(!small.update(400));
        assert_eq!(gov.evictions(), 1);
        assert!(big.take_request());
        assert!(!big.take_request(), "request consumed");
    }

    #[test]
    fn unevictable_registrants_only_add_pressure() {
        let gov = Arc::new(MemoryGovernor::new(1000));
        let pinned = gov.register(false);
        let buf = gov.register(true);
        assert!(!pinned.update(900));
        // 100 bytes of evictable data + 900 pinned: the evictable slot is
        // the only candidate even though it is far smaller.
        assert!(buf.update(200));
        assert!(!pinned.take_request(), "unevictable slot never flagged");
    }

    #[test]
    fn all_unevictable_over_budget_does_not_loop() {
        let gov = Arc::new(MemoryGovernor::new(10));
        let a = gov.register(false);
        assert!(!a.update(1_000_000));
        assert_eq!(gov.evictions(), 0);
    }

    #[test]
    fn ties_break_on_lowest_id() {
        let gov = Arc::new(MemoryGovernor::new(100));
        let first = gov.register(true);
        let second = gov.register(true);
        assert!(!first.update(80));
        assert!(!second.update(80));
        // Equal residents: deterministic victim is the lower id.
        assert!(first.take_request());
        assert!(!second.take_request());
    }

    #[test]
    fn dropped_handle_releases_residency() {
        let gov = Arc::new(MemoryGovernor::new(100));
        {
            let a = gov.register(true);
            a.update(90);
            assert_eq!(gov.resident_bytes(), 90);
        }
        assert_eq!(gov.resident_bytes(), 0);
        let b = gov.register(true);
        assert!(!b.update(95), "old registration no longer counts");
    }

    #[test]
    fn sweep_removes_only_dead_pid_files() {
        if !std::path::Path::new("/proc").is_dir() {
            return;
        }
        let dir = std::env::temp_dir().join("rpt_sweep_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let own = dir.join(format!("rpt_spill_{}_q0_0.bin", std::process::id()));
        // PID 0 is the kernel scheduler; /proc/0 never exists on Linux.
        let dead = dir.join("rpt_spill_0_q0_1.bin");
        let other = dir.join("unrelated.bin");
        for p in [&own, &dead, &other] {
            std::fs::write(p, b"x").unwrap();
        }
        let removed = sweep_orphan_spill_files(&dir);
        assert_eq!(removed, 1);
        assert!(own.exists(), "live-process file must survive");
        assert!(!dead.exists(), "dead-process file must be swept");
        assert!(other.exists(), "non-spill files untouched");
        std::fs::remove_dir_all(&dir).ok();
    }
}
