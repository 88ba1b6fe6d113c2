//! Fixture: violations inside the node engine. Node code is in the
//! deterministic tier with WAL hooks, so an order-random routing map, a
//! wall-clock timer, a bare unwrap on a lookup, and an unlogged
//! version-switch install must all fire.

use std::collections::HashMap;

impl ThreeVNode {
    fn route_over_map(&self, routes: &HashMap<Key, usize>, key: Key) -> usize {
        *routes.get(&key).unwrap()
    }

    fn time_dispatch(&self) -> std::time::Instant {
        std::time::Instant::now()
    }

    fn install_version_unlogged(&mut self, v: VersionNo) {
        self.vu = v;
    }

    fn hash_route_is_fine(&self, key: Key, n: usize) -> usize {
        // Pure hash routing: deterministic, panic-free — must NOT fire.
        (key.0.wrapping_mul(SPREAD) >> 32) as usize % n
    }
}
