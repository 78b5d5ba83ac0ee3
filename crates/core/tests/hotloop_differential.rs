//! Differential pins for the resident-L2 shortcut.
//!
//! The shortcut must be invisible at the request level for *mixed*
//! GET/PUT streams on every stack family, checked against a reference
//! core with the shortcut turned off.

use densekv::sim::{CoreSim, CoreSimConfig};
use densekv::slots::RequestSlots;
use densekv_workload::{FixedSizeWorkload, Op};

fn build(config: &CoreSimConfig, value_bytes: u64, population: u64, reference: bool) -> CoreSim {
    let mut sized = config.clone();
    sized.store_bytes = sized
        .store_bytes
        .max((value_bytes + 4096) * population * 2)
        .max(16 << 20);
    let mut core = CoreSim::new(sized).expect("valid configuration");
    if reference {
        core.disable_l2_residency_shortcut();
    }
    core.preload(value_bytes, population).expect("preload fits");
    core
}

/// Runs the same seeded mixed op stream through `fast` and `reference`,
/// asserting identical timings, breakdowns, and cache counters at every
/// request.
fn assert_streams_identical(fast: &mut CoreSim, reference: &mut CoreSim, value_bytes: u64) {
    let population = 64;
    let mut slots = RequestSlots::with_capacity(1);
    for op in [Op::Get, Op::Put, Op::Get] {
        let mut gen_f = FixedSizeWorkload::new(op, value_bytes, population, 0xD1FF ^ value_bytes);
        let mut gen_r = FixedSizeWorkload::new(op, value_bytes, population, 0xD1FF ^ value_bytes);
        for i in 0..110u32 {
            let a = slots.acquire(op, value_bytes, gen_f.next_key_id());
            let (tf, bf) = fast.execute_parts(slots.op(a), slots.key(a), slots.value_bytes(a));
            slots.release(a);
            let b = slots.acquire(op, value_bytes, gen_r.next_key_id());
            let (tr, br) = reference.execute_parts(slots.op(b), slots.key(b), slots.value_bytes(b));
            slots.release(b);
            assert_eq!(tf, tr, "timing diverged at {op:?} #{i} ({value_bytes} B)");
            assert_eq!(bf, br, "breakdown diverged at {op:?} #{i}");
            assert_eq!(
                fast.cache_stats(),
                reference.cache_stats(),
                "cache counters diverged at {op:?} #{i}"
            );
        }
    }
}

#[test]
fn residency_shortcut_is_invisible_on_mercury() {
    for value_bytes in [64, 128, 8192] {
        let config = CoreSimConfig::mercury_a7();
        let mut fast = build(&config, value_bytes, 64, false);
        let mut reference = build(&config, value_bytes, 64, true);
        assert_streams_identical(&mut fast, &mut reference, value_bytes);
    }
}

#[test]
fn residency_shortcut_is_invisible_on_iridium() {
    let config = CoreSimConfig::iridium_a7();
    let mut fast = build(&config, 128, 64, false);
    let mut reference = build(&config, 128, 64, true);
    assert_streams_identical(&mut fast, &mut reference, 128);
}

#[test]
fn residency_shortcut_is_invisible_on_helios() {
    // A tier smaller than the touched pages (misses, dirty evictions and
    // writebacks under PUTs) and one larger than them (steady hits).
    for tier_bytes in [64 << 10, 256 << 20] {
        let config = CoreSimConfig::helios_a7(tier_bytes);
        let mut fast = build(&config, 1024, 64, false);
        let mut reference = build(&config, 1024, 64, true);
        assert_streams_identical(&mut fast, &mut reference, 1024);
        let tier = fast.tier_stats().expect("Helios core has a tier");
        assert_eq!(Some(tier), reference.tier_stats());
        if tier_bytes < 1 << 20 {
            assert!(
                tier.misses > 2 * tier.capacity_pages,
                "small tier must evict"
            );
        }
    }
}
