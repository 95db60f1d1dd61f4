//! Glue between the RAN simulator and the network/app tests.
//!
//! [`LinkDriver`] steps one UE lazily along the drive at a fixed cadence,
//! caching the latest [`LinkSnapshot`] so that a TCP flow ticking at 20 ms
//! or an AR app sampling per frame re-uses the 100 ms RAN state instead of
//! advancing it. It also collects every snapshot and handover for the
//! test's XCAL record, and answers the per-tick wired-RTT queries of the
//! flows it feeds ([`LinkDriver::wired_ms`]). Both walk plan time forward,
//! so the driver threads one [`RouteHint`] through its route lookups.

use wheels_apps::{AppLink, LinkObs};
use wheels_geo::route::RouteHint;
use wheels_geo::timezone::Timezone;
use wheels_geo::trip::{DrivePlan, DriveState};
use wheels_netsim::rtt::{radio_rtt_ms, RttModel};
use wheels_netsim::server::Server;
use wheels_ran::handover::HandoverEvent;
use wheels_ran::policy::TrafficDemand;
use wheels_ran::ue::{LinkSnapshot, UeRadio};
use wheels_ran::Direction;

/// Lazily advancing link state for one test.
pub struct LinkDriver<'a> {
    ue: &'a mut UeRadio,
    plan: &'a DrivePlan,
    demand: TrafficDemand,
    tick_s: f64,
    /// Precomputed vehicle state for static tests: the UE only reads the
    /// position-derived fields (odometer / region / speed / timezone), all
    /// constant at a fixed site, so one template replaces a `state_at`
    /// interpolation per cadence step.
    static_state: Option<DriveState>,
    /// The test's server, the far end of the wired leg.
    server: Server,
    /// Wired round trip (ms) from a static test's fixed site to `server`:
    /// the position never moves, so the haversine runs once per test.
    /// Unused while driving.
    static_wired_ms: f64,
    /// Route search hint shared by [`Self::at`] and [`Self::wired_ms`].
    hint: RouteHint,
    last: Option<LinkSnapshot>,
    next_step_t: f64,
    /// All snapshots taken during the test.
    pub snapshots: Vec<LinkSnapshot>,
    /// All handovers executed during the test.
    pub handovers: Vec<HandoverEvent>,
}

impl<'a> LinkDriver<'a> {
    /// Driver for a driving test against `server`.
    pub fn driving(
        ue: &'a mut UeRadio,
        plan: &'a DrivePlan,
        server: Server,
        demand: TrafficDemand,
        tick_s: f64,
    ) -> Self {
        LinkDriver {
            ue,
            plan,
            demand,
            tick_s,
            static_state: None,
            server,
            static_wired_ms: f64::NAN,
            hint: RouteHint::default(),
            last: None,
            next_step_t: f64::NEG_INFINITY,
            snapshots: Vec::new(),
            handovers: Vec::new(),
        }
    }

    /// Driver for a static test against `server` at a fixed odometer
    /// position.
    pub(crate) fn static_at(
        ue: &'a mut UeRadio,
        plan: &'a DrivePlan,
        server: Server,
        demand: TrafficDemand,
        tick_s: f64,
        odometer_m: f64,
    ) -> Self {
        let pt = plan.route().point_at(odometer_m);
        let template = DriveState {
            time_s: 0.0,
            odometer_m,
            speed_mps: 0.0,
            pos: pt.pos,
            bearing_deg: pt.bearing_deg,
            region: plan.route().region_at(odometer_m),
            timezone: Timezone::from_longitude(pt.pos.lon),
            day: 0,
            driving: false,
        };
        LinkDriver {
            static_state: Some(template),
            static_wired_ms: RttModel::wired_ms(pt.pos, &server),
            ..Self::driving(ue, plan, server, demand, tick_s)
        }
    }

    /// Adopt a recycled snapshot buffer (cleared first) as this driver's
    /// backing storage. Campaign units run hundreds of tests back to
    /// back; threading one scratch buffer through them replaces a
    /// grow-from-empty `Vec` per test with a single long-lived
    /// allocation.
    pub(crate) fn reusing(mut self, mut scratch: Vec<LinkSnapshot>) -> Self {
        scratch.clear();
        self.snapshots = scratch;
        self
    }

    /// The snapshot in effect at absolute time `t_s`, advancing the UE if
    /// the cadence interval has elapsed.
    pub fn at(&mut self, t_s: f64) -> LinkSnapshot {
        if let Some(last) = self.last {
            if t_s < self.next_step_t {
                return last;
            }
        }
        let state = match self.static_state {
            Some(mut tpl) => {
                tpl.time_s = t_s;
                tpl
            }
            None => self.plan.state_at_hinted(t_s, &mut self.hint),
        };
        let snap = self.ue.step(t_s, &state, self.demand);
        if let Some(ev) = snap.handover {
            self.handovers.push(ev);
        }
        self.snapshots.push(snap);
        self.last = Some(snap);
        self.next_step_t = t_s + self.tick_s;
        snap
    }

    /// Wired round trip (ms) from the vehicle at absolute time `t_s` to
    /// the test's server: [`RttModel::wired_ms`] at [`DrivePlan::pos_at_hinted`],
    /// bit for bit. A static test's value was derived once, at
    /// construction. Unlike [`Self::at`] this is exact at every call, not
    /// cached per cadence step: flows ticking faster than the RAN cadence
    /// still see the vehicle move.
    pub fn wired_ms(&mut self, t_s: f64) -> f64 {
        if self.static_state.is_some() {
            return self.static_wired_ms;
        }
        RttModel::wired_ms(self.plan.pos_at_hinted(t_s, &mut self.hint), &self.server)
    }

    /// Fraction of snapshots on high-speed 5G (Fig. 10's x-axis).
    pub fn frac_hs5g(&self) -> f64 {
        if self.snapshots.is_empty() {
            return 0.0;
        }
        self.snapshots
            .iter()
            .filter(|s| s.tech.is_high_speed())
            .count() as f64
            / self.snapshots.len() as f64
    }
}

/// Base RTT (seconds) for the fluid TCP model: the wired leg `wired_ms`
/// ([`LinkDriver::wired_ms`]) + radio access. Stochastic spikes live in
/// [`RttModel`] and apply to ping tests; TCP's queueing delay is produced
/// by the flow's own buffer.
pub(crate) fn tcp_base_rtt_s(snap: &LinkSnapshot, wired_ms: f64) -> f64 {
    (wired_ms + radio_rtt_ms(snap.tech)) / 1_000.0
}

/// [`AppLink`] adapter: exposes the RAN capacity and an RTT sample stream
/// to the killer apps. TCP-level goodput is approximated as a fixed
/// efficiency off the link capacity — the apps' own pipelines dominate.
pub struct AppLinkAdapter<'a, 'b> {
    driver: &'b mut LinkDriver<'a>,
    rtt: &'b mut RttModel,
}

/// TCP efficiency factor [`AppLinkAdapter`] applies to raw capacity.
const TCP_EFFICIENCY: f64 = 0.85;

impl<'a, 'b> AppLinkAdapter<'a, 'b> {
    /// The app link over `driver`, sampling RTT from the phone's `rtt`
    /// model towards the driver's server.
    pub fn new(driver: &'b mut LinkDriver<'a>, rtt: &'b mut RttModel) -> Self {
        AppLinkAdapter { driver, rtt }
    }
}

impl AppLink for AppLinkAdapter<'_, '_> {
    fn sample(&mut self, t_s: f64) -> LinkObs {
        let snap = self.driver.at(t_s);
        let wired_ms = self.driver.wired_ms(t_s);
        let rtt_ms = self.rtt.sample_ms(
            t_s,
            wired_ms,
            snap.tech,
            snap.sinr_dl_db,
            snap.speed_mps,
            snap.in_handover,
        );
        LinkObs {
            dl_mbps: snap.cap_dl_mbps * TCP_EFFICIENCY,
            ul_mbps: snap.cap_ul_mbps * TCP_EFFICIENCY,
            rtt_ms,
            in_handover: snap.in_handover,
        }
    }
}

/// Demand presented to the network by each test kind.
pub(crate) fn demand_for(kind: wheels_xcal::TestKind) -> TrafficDemand {
    use wheels_xcal::TestKind::*;
    match kind {
        ThroughputDl | AppVideo | AppGaming => TrafficDemand::Backlog(Direction::Downlink),
        ThroughputUl | AppAr | AppCav => TrafficDemand::Backlog(Direction::Uplink),
        Rtt => TrafficDemand::Ping,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wheels_netsim::server::CLOUD_OHIO;
    use wheels_ran::deployment::build_cells;
    use wheels_ran::operator::Operator;
    use wheels_ran::ue::UeParams;

    fn setup() -> (DrivePlan, UeRadio) {
        let plan = DrivePlan::cross_country(3);
        let db = Arc::new(build_cells(plan.route(), Operator::TMobile, 3, 0));
        let ue = UeRadio::new(Operator::TMobile, db, UeParams::default(), 17);
        (plan, ue)
    }

    #[test]
    fn driver_caches_within_tick() {
        let (plan, mut ue) = setup();
        let t0 = plan.days()[0].start_time_s as f64;
        let mut d = LinkDriver::driving(
            &mut ue,
            &plan,
            CLOUD_OHIO,
            TrafficDemand::Backlog(Direction::Downlink),
            0.1,
        );
        let a = d.at(t0);
        let b = d.at(t0 + 0.05); // within the tick: cached
        assert_eq!(a.time_s, b.time_s);
        let c = d.at(t0 + 0.2);
        assert!(c.time_s > a.time_s);
        assert_eq!(d.snapshots.len(), 2);
    }

    #[test]
    fn static_driver_pins_position() {
        let (plan, mut ue) = setup();
        let t0 = plan.days()[0].start_time_s as f64;
        let mut d = LinkDriver::static_at(
            &mut ue,
            &plan,
            CLOUD_OHIO,
            TrafficDemand::Backlog(Direction::Downlink),
            0.1,
            50_000.0,
        );
        for i in 0..50 {
            let s = d.at(t0 + i as f64 * 0.1);
            assert_eq!(s.odometer_m, 50_000.0);
            assert_eq!(s.speed_mps, 0.0);
        }
    }

    #[test]
    fn wired_leg_matches_per_tick_haversine() {
        // Static: derived once, yet every 20 ms tick sees the bits a
        // per-tick haversine from the fixed site gives. Driving: the
        // hinted position at every tick, bit for bit.
        let (plan, mut ue) = setup();
        let t0 = plan.days()[0].start_time_s as f64;
        let od = 50_000.0;
        let site = plan.route().point_at(od).pos;
        let demand = TrafficDemand::Backlog(Direction::Downlink);
        let mut parked = LinkDriver::static_at(&mut ue, &plan, CLOUD_OHIO, demand, 0.1, od);
        for i in 0..500 {
            let t = t0 + i as f64 * 0.02;
            let want = RttModel::wired_ms(site, &CLOUD_OHIO);
            let got = parked.wired_ms(t);
            assert_eq!(got.to_bits(), want.to_bits(), "static tick {i}");
        }
        let mut moving = LinkDriver::driving(&mut ue, &plan, CLOUD_OHIO, demand, 0.1);
        for i in 0..500 {
            let t = t0 + i as f64 * 0.02;
            let want = RttModel::wired_ms(plan.state_at(t).pos, &CLOUD_OHIO);
            let got = moving.wired_ms(t);
            assert_eq!(got.to_bits(), want.to_bits(), "driving tick {i}");
        }
    }

    #[test]
    fn demand_mapping_matches_app_direction() {
        use wheels_xcal::TestKind::*;
        assert_eq!(
            demand_for(AppAr),
            TrafficDemand::Backlog(Direction::Uplink)
        );
        assert_eq!(
            demand_for(AppVideo),
            TrafficDemand::Backlog(Direction::Downlink)
        );
        assert_eq!(demand_for(Rtt), TrafficDemand::Ping);
    }
}
