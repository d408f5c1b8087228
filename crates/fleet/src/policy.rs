//! Cluster routing policies: where each arriving request runs.

use dimetrodon_ckpt::{schema_fold, CkptError, Dec, Enc, State};

use crate::config::FleetConfig;
use crate::health::HealthState;

/// The per-epoch cluster state a policy may consult. All slices are
/// indexed by machine (except `tenant_demand_cpu_s`, by tenant) and
/// reflect the fleet *as of the routing decision* — backlog already
/// includes earlier arrivals of the same epoch, so load-aware policies
/// spread a burst instead of dog-piling one machine.
#[derive(Debug)]
pub struct FleetView<'a> {
    /// Queued CPU-seconds per machine, this epoch's earlier arrivals
    /// included.
    pub backlog_cpu_s: &'a [f64],
    /// Mean sensor temperature per machine at the end of the previous
    /// epoch, °C.
    pub temps_celsius: &'a [f64],
    /// Cumulative routed CPU demand per tenant, CPU-seconds.
    pub tenant_demand_cpu_s: &'a [f64],
    /// What each machine advertises to the router this epoch. Without a
    /// chaos plan every machine is [`HealthState::Up`] forever; policies
    /// must never route to a machine advertised
    /// [`Down`](HealthState::Down).
    pub health: &'a [HealthState],
}

impl FleetView<'_> {
    /// Number of machines in the fleet.
    pub fn machines(&self) -> usize {
        self.backlog_cpu_s.len()
    }

    /// Whether machine `m` is advertised routable (not down).
    pub fn routable(&self, m: usize) -> bool {
        self.health[m] != HealthState::Down
    }
}

/// A cluster-level request router. `route` is called once per request
/// (in arrival order); `end_epoch` once per control epoch, after the
/// machines advanced — the hook where slow placement decisions like
/// migration live.
pub trait RoutePolicy {
    /// Stable policy name, used in CSV rows and journal lines.
    fn name(&self) -> &'static str;
    /// Picks the machine index (`< view.machines()`) the request runs on.
    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize;
    /// End-of-epoch hook; default does nothing.
    fn end_epoch(&mut self, _view: &FleetView<'_>) {}
    /// Appends the policy's mutable routing state to a checkpoint frame.
    /// Stateless policies keep the default no-op; stateful ones forward
    /// to their declared [`State`] (cursors, pinning tables, hysteresis
    /// latches).
    fn save_state(&self, _enc: &mut Enc) {}
    /// Restores the state written by [`save_state`](RoutePolicy::save_state)
    /// into a freshly built policy of the same kind.
    ///
    /// # Errors
    ///
    /// Returns a [`CkptError`] when the payload is short or shaped for a
    /// different fleet; implementations never panic on corrupt input.
    fn restore_state(&mut self, _dec: &mut Dec<'_>) -> Result<(), CkptError> {
        Ok(())
    }
}

/// The declared layouts of every stateful policy's checkpoint state,
/// folded into the fleet checkpoint fingerprint.
pub(crate) const POLICY_SCHEMA: u64 = schema_fold(
    schema_fold(RoundRobin::SCHEMA, PinnedMigrate::SCHEMA),
    FailoverPolicy::<LeastLoaded>::SCHEMA,
);

/// Index of the smallest value over routable machines, lowest index on
/// ties (strict `<` keeps the scan deterministic without any float
/// equality). When every machine is up this reduces exactly to a plain
/// argmin. Falls back to machine 0 if the whole fleet is down — the
/// epoch loop sheds the request after its bounded retries anyway.
fn argmin_routable(values: &[f64], view: &FleetView<'_>) -> usize {
    let mut best: Option<usize> = None;
    for (i, &value) in values.iter().enumerate() {
        if !view.routable(i) {
            continue;
        }
        let better = match best {
            Some(b) => value < values[b],
            None => true,
        };
        if better {
            best = Some(i);
        }
    }
    best.unwrap_or(0)
}

/// Index of the largest value, lowest index on ties.
fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for i in 1..values.len() {
        if values[i] > values[best] {
            best = i;
        }
    }
    best
}

/// Cycles through machines in index order, ignoring load and
/// temperature. The baseline every load balancer is measured against.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

dimetrodon_ckpt::state! { RoundRobin { persisted: next; derived: ; } }

impl RoutePolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _tenant: usize, view: &FleetView<'_>) -> usize {
        let n = view.machines();
        // Scan at most one full cycle for a routable machine; with every
        // machine up the first candidate wins, which is exactly the
        // pre-health behavior. A fully-down fleet yields the cursor
        // unchanged and the epoch loop sheds the request.
        let mut chosen = self.next % n;
        for offset in 0..n {
            let candidate = (self.next + offset) % n;
            if view.routable(candidate) {
                chosen = candidate;
                break;
            }
        }
        self.next = (chosen + 1) % n;
        chosen
    }

    fn save_state(&self, enc: &mut Enc) {
        self.save(enc);
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.load(dec)
    }
}

/// Sends each request to the machine with the least queued work.
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded;

impl RoutePolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _tenant: usize, view: &FleetView<'_>) -> usize {
        argmin_routable(view.backlog_cpu_s, view)
    }
}

/// Sends each request to the coolest machine: thermal-aware placement,
/// trading some queueing efficiency for flatter rack temperatures.
#[derive(Debug, Clone, Default)]
pub struct CoolestFirst;

impl RoutePolicy for CoolestFirst {
    fn name(&self) -> &'static str {
        "coolest-first"
    }

    fn route(&mut self, _tenant: usize, view: &FleetView<'_>) -> usize {
        argmin_routable(view.temps_celsius, view)
    }
}

/// Pins every tenant to a home machine (tenant affinity: caches, local
/// state) and migrates at epoch granularity: when the hottest machine
/// runs more than the hysteresis above the coolest, its
/// heaviest-demand tenant moves to the coolest machine.
#[derive(Debug, Clone)]
pub struct PinnedMigrate {
    home: Box<[usize]>,
    machines: usize,
    hysteresis_celsius: f64,
    migrations: u64,
}

dimetrodon_ckpt::state! {
    PinnedMigrate {
        persisted: home, migrations;
        derived: machines, hysteresis_celsius;
        check: PinnedMigrate::check_restored;
    }
}

impl PinnedMigrate {
    /// Pins tenant `t` to machine `t % machines` initially.
    pub fn new(tenants: usize, machines: usize, hysteresis_celsius: f64) -> PinnedMigrate {
        assert!(machines > 0, "need at least one machine");
        PinnedMigrate {
            home: (0..tenants).map(|t| t % machines).collect(),
            machines,
            hysteresis_celsius,
            migrations: 0,
        }
    }

    /// Every restored home must be a machine of this fleet.
    fn check_restored(&self) -> Result<(), CkptError> {
        match self.home.iter().find(|&&home| home >= self.machines) {
            Some(home) => Err(CkptError::Malformed(format!(
                "pinned-migrate home {home} outside a {}-machine fleet",
                self.machines
            ))),
            None => Ok(()),
        }
    }

    /// Tenants moved so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// The current home of a tenant.
    pub fn home_of(&self, tenant: usize) -> usize {
        self.home[tenant]
    }
}

impl RoutePolicy for PinnedMigrate {
    fn name(&self) -> &'static str {
        "pinned-migrate"
    }

    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize {
        let home = self.home[tenant];
        if view.routable(home) {
            return home;
        }
        // Transient failover while the home is down: the next routable
        // machine scanning upward from the home, wrapping. Affinity is
        // only re-pinned by the epoch-granularity migration below.
        let n = view.machines();
        for offset in 1..n {
            let candidate = (home + offset) % n;
            if view.routable(candidate) {
                return candidate;
            }
        }
        home
    }

    fn end_epoch(&mut self, view: &FleetView<'_>) {
        if view.machines() < 2 {
            return;
        }
        let hottest = argmax(view.temps_celsius);
        let coolest = argmin_routable(view.temps_celsius, view);
        if view.temps_celsius[hottest] - view.temps_celsius[coolest] <= self.hysteresis_celsius {
            return;
        }
        // Move the hottest machine's heaviest tenant (lowest id on ties).
        let mut heaviest: Option<usize> = None;
        for (tenant, &home) in self.home.iter().enumerate() {
            if home != hottest {
                continue;
            }
            let heavier = match heaviest {
                Some(best) => view.tenant_demand_cpu_s[tenant] > view.tenant_demand_cpu_s[best],
                None => true,
            };
            if heavier {
                heaviest = Some(tenant);
            }
        }
        if let Some(tenant) = heaviest {
            self.home[tenant] = coolest;
            self.migrations += 1;
        }
    }

    fn save_state(&self, enc: &mut Enc) {
        self.save(enc);
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.load(dec)
    }
}

impl<P: RoutePolicy + ?Sized> RoutePolicy for Box<P> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize {
        (**self).route(tenant, view)
    }

    fn end_epoch(&mut self, view: &FleetView<'_>) {
        (**self).end_epoch(view);
    }

    fn save_state(&self, enc: &mut Enc) {
        (**self).save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        (**self).restore_state(dec)
    }
}

/// Health hysteresis around any inner [`RoutePolicy`]: a machine that
/// recovers is held out of rotation until it has advertised up for a
/// configurable streak of epochs, so a flapping machine (crash-looping,
/// marginal PSU) does not thrash the router with re-route/re-return
/// cycles. The wrapper rewrites only the health slice the inner policy
/// sees; with no failures it is an exact pass-through.
pub struct FailoverPolicy<P: RoutePolicy> {
    inner: P,
    recovery_epochs: u64,
    /// The health the inner policy is shown: real health, except that
    /// recovering machines stay down until their streak completes.
    effective: Vec<HealthState>,
    /// Consecutive epochs each machine has advertised up while the
    /// wrapper still holds it down.
    up_streak: Vec<u64>,
    /// Whether this epoch's health has been folded in already; health is
    /// constant within an epoch, so the fold must run exactly once.
    tracked_this_epoch: bool,
    holds: u64,
}

// The inner policy's state follows this wrapper's in the same frame,
// written by `RoutePolicy::save_state`.
dimetrodon_ckpt::state! {
    FailoverPolicy<P: RoutePolicy> {
        persisted: effective, up_streak, tracked_this_epoch, holds;
        derived: inner, recovery_epochs;
        check: FailoverPolicy::check_restored;
    }
}

impl<P: RoutePolicy> std::fmt::Debug for FailoverPolicy<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverPolicy")
            .field("inner", &self.inner.name())
            .field("recovery_epochs", &self.recovery_epochs)
            .field("holds", &self.holds)
            .finish_non_exhaustive()
    }
}

impl<P: RoutePolicy> FailoverPolicy<P> {
    /// Wraps `inner`, requiring `recovery_epochs` consecutive up
    /// heartbeats before a recovered machine re-enters rotation.
    pub fn new(inner: P, recovery_epochs: u64) -> FailoverPolicy<P> {
        FailoverPolicy {
            inner,
            recovery_epochs,
            effective: Vec::new(),
            up_streak: Vec::new(),
            tracked_this_epoch: false,
            holds: 0,
        }
    }

    /// Times a recovered machine was held out of rotation for at least
    /// one epoch by the hysteresis.
    pub fn holds(&self) -> u64 {
        self.holds
    }

    /// The restored health and streak vectors must agree in length.
    fn check_restored(&self) -> Result<(), CkptError> {
        let machines = self.effective.len();
        dimetrodon_ckpt::check_len("failover up-streaks", self.up_streak.len(), machines)
    }

    /// Folds the advertised health into the effective health the inner
    /// policy will see, applying the recovery hysteresis. Runs at most
    /// once per epoch: the first `route` (or a route-less `end_epoch`)
    /// triggers it, `end_epoch` re-arms it.
    fn track(&mut self, health: &[HealthState]) {
        if self.tracked_this_epoch {
            return;
        }
        self.tracked_this_epoch = true;
        if self.effective.len() != health.len() {
            self.effective = health.to_vec();
            self.up_streak = vec![0; health.len()];
            return;
        }
        for (m, &observed) in health.iter().enumerate() {
            match observed {
                HealthState::Down => {
                    self.effective[m] = HealthState::Down;
                    self.up_streak[m] = 0;
                }
                state => {
                    if self.effective[m] == HealthState::Down {
                        // Recovering: count the streak before re-entry.
                        self.up_streak[m] += 1;
                        if self.up_streak[m] > self.recovery_epochs {
                            self.effective[m] = state;
                        } else if self.up_streak[m] == 1 {
                            self.holds += 1;
                        }
                    } else {
                        self.effective[m] = state;
                    }
                }
            }
        }
    }
}

impl<P: RoutePolicy> RoutePolicy for FailoverPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, tenant: usize, view: &FleetView<'_>) -> usize {
        self.track(view.health);
        let masked = FleetView {
            backlog_cpu_s: view.backlog_cpu_s,
            temps_celsius: view.temps_celsius,
            tenant_demand_cpu_s: view.tenant_demand_cpu_s,
            health: &self.effective,
        };
        self.inner.route(tenant, &masked)
    }

    fn end_epoch(&mut self, view: &FleetView<'_>) {
        self.track(view.health);
        let masked = FleetView {
            backlog_cpu_s: view.backlog_cpu_s,
            temps_celsius: view.temps_celsius,
            tenant_demand_cpu_s: view.tenant_demand_cpu_s,
            health: &self.effective,
        };
        self.inner.end_epoch(&masked);
        self.tracked_this_epoch = false;
    }

    fn save_state(&self, enc: &mut Enc) {
        self.save(enc);
        self.inner.save_state(enc);
    }

    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), CkptError> {
        self.load(dec)?;
        self.inner.restore_state(dec)
    }
}

/// The policy variants the fleet experiment compares. A plain enum so
/// CSV rows and journal records name the same set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`CoolestFirst`].
    CoolestFirst,
    /// [`PinnedMigrate`].
    PinnedMigrate,
}

impl PolicyKind {
    /// Every variant, in the order the comparison runs them.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::RoundRobin,
        PolicyKind::LeastLoaded,
        PolicyKind::CoolestFirst,
        PolicyKind::PinnedMigrate,
    ];

    /// Stable name, identical to the built policy's
    /// [`RoutePolicy::name`].
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::RoundRobin => "round-robin",
            PolicyKind::LeastLoaded => "least-loaded",
            PolicyKind::CoolestFirst => "coolest-first",
            PolicyKind::PinnedMigrate => "pinned-migrate",
        }
    }

    /// Builds a fresh policy instance for a run over `config`.
    pub fn build(self, config: &FleetConfig) -> Box<dyn RoutePolicy> {
        match self {
            PolicyKind::RoundRobin => Box::new(RoundRobin::default()),
            PolicyKind::LeastLoaded => Box::new(LeastLoaded),
            PolicyKind::CoolestFirst => Box::new(CoolestFirst),
            PolicyKind::PinnedMigrate => Box::new(PinnedMigrate::new(
                config.tenants,
                config.machines,
                config.migration_hysteresis_celsius,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_UP: [HealthState; 3] = [HealthState::Up; 3];

    fn view<'a>(
        backlog: &'a [f64],
        temps: &'a [f64],
        tenant_demand: &'a [f64],
    ) -> FleetView<'a> {
        FleetView {
            backlog_cpu_s: backlog,
            temps_celsius: temps,
            tenant_demand_cpu_s: tenant_demand,
            health: &ALL_UP[..backlog.len().min(ALL_UP.len())],
        }
    }

    fn view_with_health<'a>(
        backlog: &'a [f64],
        temps: &'a [f64],
        tenant_demand: &'a [f64],
        health: &'a [HealthState],
    ) -> FleetView<'a> {
        FleetView {
            backlog_cpu_s: backlog,
            temps_celsius: temps,
            tenant_demand_cpu_s: tenant_demand,
            health,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut policy = RoundRobin::default();
        let v = view(&[0.0; 3], &[0.0; 3], &[]);
        let picks: Vec<usize> = (0..7).map(|_| policy.route(0, &v)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_picks_min_backlog_lowest_index_on_ties() {
        let mut policy = LeastLoaded;
        assert_eq!(policy.route(0, &view(&[2.0, 0.5, 0.5], &[0.0; 3], &[])), 1);
        assert_eq!(policy.route(0, &view(&[1.0, 1.0, 1.0], &[0.0; 3], &[])), 0);
    }

    #[test]
    fn coolest_first_picks_min_temperature() {
        let mut policy = CoolestFirst;
        assert_eq!(policy.route(0, &view(&[0.0; 3], &[44.0, 39.5, 41.0], &[])), 1);
    }

    #[test]
    fn pinned_migrate_moves_the_heaviest_tenant_off_the_hot_machine() {
        // 4 tenants over 2 machines: tenants 0,2 home on machine 0;
        // 1,3 on machine 1. Machine 0 runs hot; tenant 2 is heavier.
        let mut policy = PinnedMigrate::new(4, 2, 1.0);
        assert_eq!(policy.home_of(0), 0);
        assert_eq!(policy.home_of(2), 0);
        let demand = [1.0, 0.2, 5.0, 0.1];
        policy.end_epoch(&view(&[0.0; 2], &[50.0, 40.0], &demand));
        assert_eq!(policy.migrations(), 1);
        assert_eq!(policy.home_of(2), 1, "heaviest hot tenant moved to the coolest");
        assert_eq!(policy.home_of(0), 0, "lighter tenant stays");

        // Inside hysteresis: nothing moves.
        policy.end_epoch(&view(&[0.0; 2], &[40.4, 40.0], &demand));
        assert_eq!(policy.migrations(), 1);
    }

    #[test]
    fn every_policy_skips_machines_advertised_down() {
        let health = [HealthState::Up, HealthState::Down, HealthState::Up];
        let backlog = [5.0, 0.0, 9.0];
        let temps = [45.0, 20.0, 50.0];
        let v = view_with_health(&backlog, &temps, &[], &health);

        // The dead machine has both the least backlog and the coolest
        // (stale) temperature — exactly the trap argmin must not fall in.
        assert_eq!(LeastLoaded.route(0, &v), 0);
        assert_eq!(CoolestFirst.route(0, &v), 0);

        let mut rr = RoundRobin::default();
        let picks: Vec<usize> = (0..4).map(|_| rr.route(0, &v)).collect();
        assert_eq!(picks, [0, 2, 0, 2], "round robin cycles over survivors");
    }

    #[test]
    fn degraded_machines_stay_routable() {
        let health = [HealthState::Degraded, HealthState::Up, HealthState::Up];
        let backlog = [0.0, 3.0, 3.0];
        let v = view_with_health(&backlog, &[0.0; 3], &[], &health);
        assert_eq!(
            LeastLoaded.route(0, &v),
            0,
            "degraded is a trust signal, not an exclusion"
        );
    }

    #[test]
    fn pinned_migrate_fails_over_while_the_home_is_down_without_rehoming() {
        let mut policy = PinnedMigrate::new(2, 3, 10.0);
        assert_eq!(policy.home_of(1), 1);
        let health = [HealthState::Up, HealthState::Down, HealthState::Up];
        let v = view_with_health(&[0.0; 3], &[40.0; 3], &[0.0, 0.0], &health);
        assert_eq!(policy.route(1, &v), 2, "next routable machine after the home");
        assert_eq!(policy.home_of(1), 1, "affinity survives the outage");
        let recovered = view(&[0.0; 3], &[40.0; 3], &[0.0, 0.0]);
        assert_eq!(policy.route(1, &recovered), 1, "home resumes when back up");
    }

    #[test]
    fn failover_wrapper_holds_recovered_machines_for_the_hysteresis() {
        let mut policy = FailoverPolicy::new(LeastLoaded, 2);
        let backlog = [0.0, 5.0, 5.0];
        let down = [HealthState::Down, HealthState::Up, HealthState::Up];
        let up = ALL_UP;

        // Epoch 1: machine 0 down; wrapper must exclude it.
        let v = view_with_health(&backlog, &[0.0; 3], &[], &down);
        assert_eq!(policy.route(0, &v), 1);
        policy.end_epoch(&v);

        // Epochs 2–3: machine 0 advertises up again, but the wrapper
        // holds it down until the streak exceeds 2 epochs.
        for _ in 0..2 {
            let v = view_with_health(&backlog, &[0.0; 3], &[], &up);
            assert_eq!(policy.route(0, &v), 1, "held during the recovery streak");
            policy.end_epoch(&v);
        }
        assert_eq!(policy.holds(), 1, "one recovery event was held");

        // Epoch 4: streak complete, the machine re-enters rotation.
        let v = view_with_health(&backlog, &[0.0; 3], &[], &up);
        assert_eq!(policy.route(0, &v), 0);
    }

    #[test]
    fn failover_wrapper_is_a_pass_through_without_failures() {
        let mut wrapped = FailoverPolicy::new(RoundRobin::default(), 3);
        let mut bare = RoundRobin::default();
        let v = view(&[0.0; 3], &[0.0; 3], &[]);
        for _ in 0..7 {
            assert_eq!(wrapped.route(0, &v), bare.route(0, &v));
        }
        assert_eq!(wrapped.name(), "round-robin", "naming is transparent");
        assert_eq!(wrapped.holds(), 0);
    }

    #[test]
    fn kind_names_match_built_policies() {
        let config = FleetConfig::rack_scale(4, 9);
        for kind in PolicyKind::ALL {
            assert_eq!(kind.build(&config).name(), kind.name());
        }
    }
}
