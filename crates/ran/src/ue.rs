//! The UE radio: ties deployment, selection, policy, load and handovers
//! into a per-tick link state.
//!
//! One [`UeRadio`] models one phone on one operator. The campaign steps it
//! along the drive (typically every 100–500 ms while a test is running) and
//! receives [`LinkSnapshot`]s carrying everything XCAL would log: serving
//! technology and cell, RSRP, SINR, MCS, BLER, CA count, deliverable
//! capacity per direction, and handover events as they execute.
//!
//! A passive handover-logger phone records only its serving cell and
//! technology: it is a [`ServingRadio`], whose steps run the same
//! mobility logic and consume the same policy-RNG draws as
//! [`UeRadio::step`] but skip the link computation.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use wheels_geo::region::RegionKind;
use wheels_geo::timezone::Timezone;
use wheels_geo::trip::DriveState;
use wheels_radio::band::Technology;
use wheels_radio::bler::bler_from_sinr;

use wheels_radio::pathloss::PathLossModel;

use crate::cell::{CellDb, CellId, WindowCursor};
use crate::config::{link_config_ref, link_noise_lin, LinkConfig};
use crate::fleet::FleetLoad;
use crate::handover::{draw_interruption_ms, A3Tracker, HandoverEvent, HandoverKind};
use crate::load::{LoadParams, LoadProcess};
use crate::operator::Operator;
use crate::policy::{TrafficDemand, UpgradePolicy};
use crate::selection::{
    draw_fade_db, evaluate_layer_span, interference_lin, layer_clutter, sinr_db_with_interf,
    sub_rng, LayerCandidate, ShadowStore,
};
use crate::tuning::OperatorTuning;
use crate::Direction;

/// Tuning knobs for a UE instance.
#[derive(Debug, Clone)]
pub struct UeParams {
    /// Load process parameters (same for both directions).
    pub load: LoadParams,
    /// Policy re-evaluation interval bounds, seconds.
    pub policy_interval_s: (f64, f64),
    /// Clutter multiplier: 1.0 while driving; ~0.25 for static baseline
    /// tests where the tester positions the phone facing the BS with a
    /// clear line of sight (§5.1).
    pub clutter_scale: f64,
    /// Probability per policy evaluation of a network-initiated
    /// load-balancing handover to a roughly-equal neighbor (no A3 signal
    /// advantage). These are why the paper finds post-HO throughput
    /// *lower* than pre-HO ~25 % of the time — not every HO is for the
    /// UE's benefit.
    pub load_balance_ho_prob: f64,
    /// Live subscriber-fleet load, shared per operator. `None` (the
    /// default, and the `population: 0` path) leaves the hidden
    /// [`LoadProcess`] untouched — the exact pre-fleet behaviour. When
    /// set, the fleet's demand calibrates the load share each probe sees
    /// and damps promotion onto congested layers.
    pub fleet: Option<Arc<FleetLoad>>,
}

impl Default for UeParams {
    fn default() -> Self {
        UeParams {
            load: LoadParams::driving(),
            policy_interval_s: (8.0, 15.0),
            clutter_scale: 1.0,
            load_balance_ho_prob: 0.06,
            fleet: None,
        }
    }
}

/// Everything XCAL logs about the link at one instant, plus the capacities
/// the network simulator needs.
#[derive(Debug, Clone, Copy)]
pub struct LinkSnapshot {
    /// Time of the snapshot, seconds.
    pub time_s: f64,
    /// Odometer, meters.
    pub odometer_m: f64,
    /// Vehicle speed, m/s.
    pub speed_mps: f64,
    /// Region kind.
    pub region: RegionKind,
    /// Timezone.
    pub timezone: Timezone,
    /// Serving technology (last known during outage).
    pub tech: Technology,
    /// Serving cell (last known during outage).
    pub cell: CellId,
    /// True when the UE has no usable cell at all.
    pub outage: bool,
    /// Serving-cell RSRP, dBm.
    pub rsrp_dbm: f64,
    /// Downlink wideband SINR, dB.
    pub sinr_dl_db: f64,
    /// Uplink wideband SINR, dB.
    pub sinr_ul_db: f64,
    /// Primary-cell MCS, downlink.
    pub mcs_dl: u8,
    /// Primary-cell MCS, uplink.
    pub mcs_ul: u8,
    /// Residual BLER, [0, 1].
    pub bler: f64,
    /// Active aggregated carriers, downlink.
    pub ca_dl: u8,
    /// Active aggregated carriers, uplink.
    pub ca_ul: u8,
    /// Deliverable downlink capacity, Mbps (0 during handover blanking).
    pub cap_dl_mbps: f64,
    /// Deliverable uplink capacity, Mbps (0 during handover blanking).
    pub cap_ul_mbps: f64,
    /// True while a handover interruption is in progress.
    pub in_handover: bool,
    /// A handover that executed at this tick, if any.
    pub handover: Option<HandoverEvent>,
}

#[derive(Debug, Clone, Copy)]
struct Serving {
    cell: CellId,
    tech: Technology,
}

/// What a passive logger sees of one step: serving technology and cell
/// exactly as [`LinkSnapshot`] reports them, plus the handover executed
/// at this tick, if any.
#[derive(Debug, Clone, Copy)]
pub struct ServingStep {
    /// Serving technology (`Lte` during outage, as in the snapshot).
    pub tech: Technology,
    /// Serving cell (`CellId(u32::MAX)` during outage).
    pub cell: CellId,
    /// A handover that executed at this tick, if any.
    pub handover: Option<HandoverEvent>,
}

/// The policy-RNG values one link computation consumes, drawn by
/// [`UeRadio::draw_link`] in stream order.
#[derive(Debug, Clone, Copy)]
struct LinkDraws {
    fade_dl_db: f64,
    fade_ul_db: f64,
    bler_jitter: f64,
    /// CA pulls, present where the direction aggregates > 1 carrier.
    cc_pull_dl: Option<f64>,
    cc_pull_ul: Option<f64>,
}

/// One phone on one operator's network.
#[derive(Debug)]
pub struct UeRadio {
    op: Operator,
    db: Arc<CellDb>,
    params: UeParams,
    policy: UpgradePolicy,
    /// Scenario multiplier on promotion probabilities, `Technology::ALL`
    /// order (all 1.0 outside scenario overrides — an exact no-op).
    promo_scale: [f64; 5],
    shadows: ShadowStore,
    /// Per-layer path-loss model, cached by effective clutter — rebuilt
    /// only when the region (hence clutter) changes, not every tick.
    pl_cache: [Option<(f64, PathLossModel)>; 5],
    /// Per-layer audible-window cursor: slides forward with the (monotone)
    /// odometer instead of binary-searching the layer every tick.
    win: [WindowCursor; 5],
    /// Each layer's candidate as last scored, in `Technology::ALL` order.
    /// Only the entries marked `fresh` belong to the current scan.
    cands: [Option<LayerCandidate>; 5],
    /// Per layer, whether `cands` holds its candidate at `scan_key`. A
    /// stale layer is scored on its first read ([`UeRadio::candidate`]).
    fresh: [bool; 5],
    /// Per layer, the layer positions of the last scan's best and
    /// runner-up: the next scan scores them first (see
    /// [`evaluate_layer_span`]).
    primes: [[Option<usize>; 2]; 5],
    /// `(odometer bits, region)` the windows were last moved at: while
    /// the UE stands still the scan's inputs are unchanged, so
    /// [`UeRadio::step`] keeps the fresh candidates instead of rescoring.
    scan_key: Option<(u64, RegionKind)>,
    rng: SmallRng,
    load_dl: LoadProcess,
    load_ul: LoadProcess,
    serving: Option<Serving>,
    a3: A3Tracker,
    ho_until_s: f64,
    next_policy_s: f64,
    next_lb_s: f64,
    last_demand: Option<TrafficDemand>,
}

impl UeRadio {
    /// Create a UE on `op`'s network. `seed` controls every random element
    /// of this UE (shadowing realizations, load, policy dice).
    pub fn new(op: Operator, db: Arc<CellDb>, params: UeParams, seed: u64) -> Self {
        Self::new_tuned(op, db, params, seed, &OperatorTuning::NEUTRAL)
    }

    /// [`UeRadio::new`] with scenario tuning applied to the upgrade policy.
    pub fn new_tuned(
        op: Operator,
        db: Arc<CellDb>,
        params: UeParams,
        seed: u64,
        tuning: &OperatorTuning,
    ) -> Self {
        assert_eq!(db.op(), op, "cell database belongs to a different operator");
        UeRadio {
            op,
            db,
            policy: UpgradePolicy,
            promo_scale: tuning.promotion_scale,
            shadows: ShadowStore::new(seed),
            pl_cache: [None; 5],
            win: [WindowCursor::default(); 5],
            cands: [None; 5],
            fresh: [false; 5],
            primes: [[None; 2]; 5],
            scan_key: None,
            rng: sub_rng(seed, 11),
            load_dl: LoadProcess::new(params.load, seed ^ 0xD1),
            load_ul: LoadProcess::new(params.load, seed ^ 0xB7),
            params,
            serving: None,
            a3: A3Tracker::default(),
            ho_until_s: f64::NEG_INFINITY,
            next_policy_s: f64::NEG_INFINITY,
            next_lb_s: f64::NEG_INFINITY,
            last_demand: None,
        }
    }

    /// The operator this UE is subscribed to.
    pub fn op(&self) -> Operator {
        self.op
    }

    /// Advance to time `t_s` with the vehicle in `drive` state and the
    /// traffic pattern `demand`; returns the link state.
    ///
    /// Must be called with non-decreasing `t_s` and odometer.
    ///
    /// A step is three parts: the mobility half ([`Self::mobility`]:
    /// scan, policy, load balancing, A3), the link's policy-RNG draws
    /// ([`Self::draw_link`]) and the link computation from them
    /// ([`Self::link`]). [`ServingRadio`] runs the first two only.
    pub fn step(&mut self, t_s: f64, drive: &DriveState, demand: TrafficDemand) -> LinkSnapshot {
        let (ho, serving_rsrp_known) = self.mobility(t_s, drive, demand);
        let draws = self.draw_link(self.reported().0);
        self.link(t_s, drive, demand, ho, serving_rsrp_known, draws)
    }

    /// The serving-only step of [`ServingRadio`]: [`Self::step`] without
    /// the link computation. It consumes exactly the policy-RNG draws
    /// `step` does (the link's draws depend only on the reported
    /// technology, never on computed values), so the `(cell, tech,
    /// handover)` stream equals `step`'s bit for bit. The load processes
    /// and the snapshot's `rsrp_of` fallback are skipped: neither touches
    /// the policy RNG, and the fallback reads the serving layer, which the
    /// mobility half already caught up to this odometer.
    fn step_serving(&mut self, t_s: f64, drive: &DriveState, demand: TrafficDemand) -> ServingStep {
        let (handover, _) = self.mobility(t_s, drive, demand);
        let (tech, cell) = self.reported();
        self.draw_link(tech);
        ServingStep {
            tech,
            cell,
            handover,
        }
    }

    /// Serving technology and cell as the snapshot reports them: the
    /// serving cell, or `(Lte, CellId(u32::MAX))` in outage.
    fn reported(&self) -> (Technology, CellId) {
        match self.serving {
            Some(s) => (s.tech, s.cell),
            None => (Technology::Lte, CellId(u32::MAX)),
        }
    }

    /// The mobility half of a step: scan, policy, load balancing and A3.
    /// Returns the handover executed at this tick, if any, and the serving
    /// RSRP the A3 check already looked up (for [`Self::link`]).
    ///
    /// The scan is lazy. Each step moves every layer's audible window and
    /// records the move with its shadowing bank, drawing nothing; a layer
    /// is caught up and scored only when its candidate is first read
    /// ([`Self::candidate`]). The serving layer is read on every step; the
    /// others only when the policy asks whether they are available. Which
    /// layers are read never changes a value: each candidate is a pure
    /// function of the step's odometer and region, and every shadowing
    /// field that is read has been advanced through the same odometers as
    /// an eager scan would have.
    ///
    /// The windows move only when the odometer (bit for bit) or the
    /// region changed since the last step. At an unchanged odometer a
    /// rescan would return the same candidates and draw nothing: a
    /// shadowing field advanced by Δ ≤ 0 keeps its value; path loss
    /// depends only on distance and the region's clutter; the window
    /// cursor does not move. So a parked or static UE keeps its fresh
    /// candidates with byte-identical output.
    fn mobility(
        &mut self,
        t_s: f64,
        drive: &DriveState,
        demand: TrafficDemand,
    ) -> (Option<HandoverEvent>, Option<(CellId, Option<f64>)>) {
        let od = drive.odometer_m;

        // Move every layer's window, unless the UE has not moved.
        let key = (od.to_bits(), drive.region);
        if self.scan_key != Some(key) {
            for (i, tech) in Technology::ALL.iter().enumerate() {
                let window = tech.nominal_range_m() * 1.6;
                let range = self.win[i].range(self.db.layer(*tech).od_m(), od, window);
                self.shadows.defer(*tech, range, od);
            }
            self.fresh = [false; 5];
            self.scan_key = Some(key);
        }

        // Policy evaluation: on schedule, on demand change, or if the
        // serving layer vanished.
        let serving_alive = match self.serving {
            Some(s) => self.candidate(s.tech, drive).is_some(),
            None => false,
        };
        let demand_changed = self.last_demand != Some(demand);
        let mut ho: Option<HandoverEvent> = None;
        if t_s >= self.next_policy_s || demand_changed || !serving_alive {
            let target_tech = self.decide_tech(drive, demand, t_s);
            self.next_policy_s = t_s
                + self
                    .rng
                    .gen_range(self.params.policy_interval_s.0..self.params.policy_interval_s.1);
            self.last_demand = Some(demand);
            if let Some(tech) = target_tech {
                let best = self
                    .candidate(tech, drive)
                    .expect("decide_tech only picks available layers");
                match self.serving {
                    Some(s) if s.tech == tech && s.cell == best.cell => {}
                    Some(s) if s.tech == tech => {
                        // Same layer, different cell: let A3 handle it below.
                    }
                    prev => {
                        // Vertical (or initial) transition.
                        if let Some(p) = prev {
                            ho = Some(self.execute_ho(t_s, p, (best.cell, tech)));
                        }
                        self.serving = Some(Serving {
                            cell: best.cell,
                            tech,
                        });
                        self.load_dl.redraw();
                        self.load_ul.redraw();
                        self.a3.reset();
                    }
                }
            } else {
                self.serving = None;
            }
        }

        // Network-initiated load balancing: occasionally shed the UE to
        // a comparable neighbor regardless of A3 (checked at the policy
        // cadence so the rate is per-evaluation, not per-tick).
        if ho.is_none() && t_s >= self.next_lb_s {
            self.next_lb_s = t_s
                + self
                    .rng
                    .gen_range(self.params.policy_interval_s.0..self.params.policy_interval_s.1);
            if self
                .rng
                .gen_bool(self.params.load_balance_ho_prob.clamp(0.0, 1.0))
            {
                if let Some(s) = self.serving {
                    if let Some(layer) = self.candidate(s.tech, drive) {
                        // Shed towards the neighbor, not the best server:
                        // if we hold the best cell, take the runner-up.
                        let target = if layer.cell != s.cell {
                            Some(layer.cell)
                        } else {
                            layer.second_cell
                        };
                        if let Some(target) = target.filter(|&c| c != s.cell) {
                            ho = Some(self.execute_ho(t_s, s, (target, s.tech)));
                            self.serving = Some(Serving {
                                cell: target,
                                tech: s.tech,
                            });
                            self.load_dl.redraw();
                            self.load_ul.redraw();
                            self.a3.reset();
                        }
                    }
                }
            }
        }

        // Horizontal mobility within the serving layer (A3). The serving
        // RSRP consults the layer scan first: when the serving cell is the
        // scan's runner-up its exact RSRP (same path loss, same shadowing
        // sample — the field does not re-draw at an unchanged odometer) is
        // already in hand, and when it is neither best nor second the
        // `rsrp_of` result is remembered for the snapshot below.
        let mut serving_rsrp_known: Option<(CellId, Option<f64>)> = None;
        if ho.is_none() {
            if let Some(s) = self.serving {
                if let Some(best) = self.candidate(s.tech, drive) {
                    if best.cell != s.cell {
                        let sr = if best.second_cell == Some(s.cell) {
                            best.second_rsrp_dbm
                        } else {
                            self.rsrp_of(s, drive)
                        };
                        serving_rsrp_known = Some((s.cell, sr));
                        let serving_rsrp = sr.unwrap_or(-130.0);
                        if self
                            .a3
                            .observe(t_s, serving_rsrp, Some((best.cell, best.rsrp_dbm)))
                        {
                            ho = Some(self.execute_ho(t_s, s, (best.cell, s.tech)));
                            self.serving = Some(Serving {
                                cell: best.cell,
                                tech: s.tech,
                            });
                            self.load_dl.redraw();
                            self.load_ul.redraw();
                            self.a3.reset();
                        }
                    } else {
                        self.a3.observe(t_s, best.rsrp_dbm, None);
                    }
                }
            }
        }

        (ho, serving_rsrp_known)
    }

    /// Pick the serving technology given layer availability and policy.
    ///
    /// Decisions are *sticky*: an elevation that is still usable is kept
    /// with high probability, so the UE does not churn through vertical
    /// handovers at every policy evaluation (real networks hold an EN-DC
    /// leg until it degrades or the session ends).
    ///
    /// Availability is read layer by layer in the order the policy asks,
    /// so a layer the decision never reaches is never scored.
    fn decide_tech(
        &mut self,
        drive: &DriveState,
        demand: TrafficDemand,
        t_s: f64,
    ) -> Option<Technology> {
        if let Some(s) = self.serving {
            if self.candidate(s.tech, drive).is_some()
                && self.last_demand == Some(demand)
                && self.rng.gen_bool(0.82)
            {
                return Some(s.tech);
            }
        }
        for tech in UpgradePolicy::PREFERENCE {
            if self.candidate(tech, drive).is_none() {
                continue;
            }
            let mut p = (self.policy.promotion_prob(self.op, tech, demand)
                * self.promo_scale[tech_idx(tech)])
            .clamp(0.0, 1.0);
            // mmWave under light traffic happens essentially only when the
            // vehicle is (nearly) stationary (§5.5, Fig. 8).
            if tech == Technology::Nr5gMmWave
                && matches!(demand, TrafficDemand::Ping | TrafficDemand::Idle)
                && drive.speed_mps > 3.0
            {
                p *= 0.02;
            }
            // A stationary UE with backlogged traffic (the static
            // baselines, a parked passenger) is the easiest elevation
            // decision an operator faces — boost strongly.
            if matches!(demand, TrafficDemand::Backlog(_)) && drive.speed_mps < 3.0 {
                p = 1.0 - (1.0 - p) * 0.25;
            }
            // Traffic-dependent policy: a layer the fleet has loaded up
            // attracts fewer promotions at that hour.
            if let Some(fleet) = &self.params.fleet {
                p *= fleet.promo_factor(tech, t_s);
            }
            if self.rng.gen_bool(p.clamp(0.0, 1.0)) {
                return Some(tech);
            }
        }
        // Anchor: LTE-A if available, else LTE.
        if self.candidate(Technology::LteA, drive).is_some() {
            Some(Technology::LteA)
        } else if self.candidate(Technology::Lte, drive).is_some() {
            Some(Technology::Lte)
        } else {
            // Desperate fallback: any remaining layer.
            Technology::ALL
                .into_iter()
                .find(|&t| self.candidate(t, drive).is_some())
        }
    }

    /// This step's candidate on `tech`'s layer: scored on the first read
    /// after the windows moved, then kept until they move again. Scoring
    /// catches the layer's shadowing up through every window deferred
    /// since its last read, then runs pass 2 of the scan from the
    /// layer's primes.
    fn candidate(&mut self, tech: Technology, drive: &DriveState) -> Option<LayerCandidate> {
        let i = tech_idx(tech);
        if !self.fresh[i] {
            let pl = self.pl_for(tech, drive.region);
            self.cands[i] = evaluate_layer_span(
                &self.db,
                tech,
                drive.odometer_m,
                &pl,
                &mut self.shadows,
                &mut self.primes[i],
            );
            self.fresh[i] = true;
        }
        self.cands[i]
    }

    fn execute_ho(&mut self, t_s: f64, from: Serving, to: (CellId, Technology)) -> HandoverEvent {
        let duration_ms = draw_interruption_ms(self.op, &mut self.rng);
        self.ho_until_s = t_s + duration_ms / 1_000.0;
        HandoverEvent {
            time_s: t_s,
            from: (from.cell, from.tech),
            to,
            duration_ms,
            kind: HandoverKind::classify(from.tech, to.1),
        }
    }

    /// Path-loss model for one layer in the current region, via the
    /// per-layer cache (clutter only changes when the region does).
    fn pl_for(&mut self, tech: Technology, region: RegionKind) -> PathLossModel {
        let clut = layer_clutter(tech, region, self.params.clutter_scale);
        let i = tech_idx(tech);
        match self.pl_cache[i] {
            Some((c, pl)) if c == clut => pl,
            _ => {
                let pl = PathLossModel::new(tech.band(), clut);
                self.pl_cache[i] = Some((clut, pl));
                pl
            }
        }
    }

    /// RSRP of a specific serving cell (it may no longer be the best).
    fn rsrp_of(&mut self, s: Serving, drive: &DriveState) -> Option<f64> {
        // Only called from `step` at the step's own odometer, so the
        // layer's cursor (already moved by the scan) does not move.
        let pl = self.pl_for(s.tech, drive.region);
        let od = drive.odometer_m;
        let window = s.tech.nominal_range_m() * 1.6;
        let layer = self.db.layer(s.tech);
        let mut range = self.win[tech_idx(s.tech)].range(layer.od_m(), od, window);
        let pos = range.find(|&i| layer.ids()[i] == s.cell)?;
        let along = od - layer.od_m()[pos];
        let dist = (along * along + layer.lat_sq_m2()[pos]).sqrt();
        let eirp = layer.eirp_re_dbm()[pos];
        Some(eirp - pl.loss_db(dist) + self.shadows.shadow_at(s.tech, pos, layer.ids()))
    }

    /// Draw the link's policy-RNG values in stream order: DL fade, UL
    /// fade, BLER jitter, then one CA pull per direction whose config
    /// aggregates more than one carrier. Which values are drawn depends
    /// only on the operator and the reported technology `tech`.
    fn draw_link(&mut self, tech: Technology) -> LinkDraws {
        let fade_dl_db = draw_fade_db(&mut self.rng);
        let fade_ul_db = draw_fade_db(&mut self.rng);
        let bler_jitter = self.rng.gen_range(-0.02..0.02);
        let mut cc_pull =
            |dir| (link_config_ref(self.op, tech, dir).max_cc() > 1).then(|| self.rng.gen::<f64>());
        let cc_pull_dl = cc_pull(Direction::Downlink);
        let cc_pull_ul = cc_pull(Direction::Uplink);
        LinkDraws {
            fade_dl_db,
            fade_ul_db,
            bler_jitter,
            cc_pull_dl,
            cc_pull_ul,
        }
    }

    /// The link computation of a step from its mobility outcome and its
    /// policy-RNG draws: serving RSRP, SINR, BLER, CA, load shares and
    /// capacities. Draws nothing from the policy RNG.
    fn link(
        &mut self,
        t_s: f64,
        drive: &DriveState,
        demand: TrafficDemand,
        ho: Option<HandoverEvent>,
        serving_rsrp_known: Option<(CellId, Option<f64>)>,
        draws: LinkDraws,
    ) -> LinkSnapshot {
        let in_handover = t_s < self.ho_until_s;
        let (tech, cell) = self.reported();
        let (rsrp, interferer) = match self.serving {
            Some(s) => {
                let layer = self.candidate(s.tech, drive);
                let rsrp = match layer {
                    Some(b) if b.cell == s.cell => b.rsrp_dbm,
                    Some(b) if b.second_cell == Some(s.cell) => b.second_rsrp_dbm.unwrap_or(-125.0),
                    _ => match serving_rsrp_known {
                        Some((c, r)) if c == s.cell => r.unwrap_or(-125.0),
                        _ => self.rsrp_of(s, drive).unwrap_or(-125.0),
                    },
                };
                let interf = match layer {
                    Some(b) if b.cell == s.cell => b.second_rsrp_dbm,
                    Some(b) => Some(b.rsrp_dbm),
                    None => None,
                };
                (rsrp, interf)
            }
            None => (-125.0, None),
        };
        let outage = self.serving.is_none();

        let cfg_dl = link_config_ref(self.op, tech, Direction::Downlink);
        let cfg_ul = link_config_ref(self.op, tech, Direction::Uplink);
        let noise_dl = link_noise_lin(self.op, tech, Direction::Downlink);
        let noise_ul = link_noise_lin(self.op, tech, Direction::Uplink);
        // One interference power serves both directions.
        let interf = interference_lin(interferer, tech);
        let sinr_dl = sinr_db_with_interf(rsrp, noise_dl, interf, draws.fade_dl_db);
        let sinr_ul = sinr_db_with_interf(rsrp, noise_ul, interf, draws.fade_ul_db) - 2.0;

        let bler = (bler_from_sinr(sinr_dl, drive.speed_mps) + draws.bler_jitter).clamp(0.0, 0.9);

        let ca_dl = pick_cc(
            cfg_dl,
            sinr_dl,
            matches!(demand, TrafficDemand::Backlog(Direction::Downlink)),
            draws.cc_pull_dl,
        );
        let ca_ul = pick_cc(
            cfg_ul,
            sinr_ul,
            matches!(demand, TrafficDemand::Backlog(Direction::Uplink)),
            draws.cc_pull_ul,
        );

        // Channel aging at speed: CQI staleness and beam mis-tracking cost
        // a slice of the scheduled rate beyond the BLER penalty — part of
        // why the paper's speed–throughput correlation is (weakly)
        // negative (Table 2).
        let speed_factor = 1.0 - 0.12 * (drive.speed_mps / 31.0).clamp(0.0, 1.0);
        let mut share_dl = self.load_dl.share_at(t_s) * speed_factor;
        let mut share_ul = self.load_ul.share_at(t_s)
            * speed_factor
            * ul_share_penalty(self.op, tech, drive.speed_mps);
        // Fleet calibration: the hidden load process keeps its stochastic
        // fluctuation shape, but its level is re-anchored to the serving
        // cell's live demand. Runs after `share_at` so the RNG stream is
        // identical with and without a fleet.
        if let Some(fleet) = &self.params.fleet {
            if !outage {
                let m = fleet.share_factor(cell, t_s, self.params.load.median_share);
                share_dl = (share_dl * m).clamp(0.005, 1.0);
                share_ul = (share_ul * m).clamp(0.005, 1.0);
            }
        }

        let (cap_dl, mcs_dl) = if outage || in_handover {
            (0.0, 0)
        } else {
            let c = cfg_dl
                .capacity_model(ca_dl as usize)
                .capacity(sinr_dl, bler, share_dl);
            (c.mbps, c.mcs)
        };
        let (cap_ul, mcs_ul) = if outage || in_handover {
            (0.0, 0)
        } else {
            let c = cfg_ul
                .capacity_model(ca_ul as usize)
                .capacity(sinr_ul, bler, share_ul);
            (c.mbps, c.mcs)
        };

        LinkSnapshot {
            time_s: t_s,
            odometer_m: drive.odometer_m,
            speed_mps: drive.speed_mps,
            region: drive.region,
            timezone: drive.timezone,
            tech,
            cell,
            outage,
            rsrp_dbm: rsrp,
            sinr_dl_db: sinr_dl,
            sinr_ul_db: sinr_ul,
            mcs_dl,
            mcs_ul,
            bler,
            ca_dl,
            ca_ul,
            cap_dl_mbps: cap_dl,
            cap_ul_mbps: cap_ul,
            in_handover,
            handover: ho,
        }
    }
}

/// Number of active component carriers: grows with link quality and
/// whether this direction is loaded. `pull` is the direction's uniform CA
/// draw, present exactly when `cfg` aggregates more than one carrier.
fn pick_cc(cfg: &LinkConfig, sinr_db: f64, backlogged: bool, pull: Option<f64>) -> u8 {
    let Some(u) = pull else {
        return 1;
    };
    let max = cfg.max_cc();
    let q = ((sinr_db - 2.0) / 20.0).clamp(0.0, 1.0);
    let demand_boost = if backlogged { 1.0 } else { 0.4 };
    // Real CA activation depends on per-site carrier availability and
    // scheduler whim far more than on this UE's SINR; keep the SINR
    // pull mild so the logged CA KPI correlates with throughput only
    // moderately (Table 2: 0.05-0.58).
    let pull = 0.35 * q + 0.65 * u;
    let extra = (pull * demand_boost * (max - 1) as f64)
        .round()
        .clamp(0.0, (max - 1) as f64);
    1 + extra as u8
}

/// A passive handover-logger phone: a [`UeRadio`] that only takes
/// serving-only steps, which skip the link computation.
///
/// A serving-only step never advances the UE's load processes, so a UE
/// that took one must not take a full [`UeRadio::step`] afterwards (its
/// load shares would jump over the skipped interval). Owning the UE with
/// no way back out makes that mix unrepresentable.
#[derive(Debug)]
pub struct ServingRadio(UeRadio);

impl ServingRadio {
    /// Take over `ue` for serving-only steps.
    pub fn new(ue: UeRadio) -> Self {
        ServingRadio(ue)
    }

    /// Advance to time `t_s` like [`UeRadio::step`] and report the serving
    /// cell, technology and handover that step's snapshot would carry.
    pub fn step(&mut self, t_s: f64, drive: &DriveState, demand: TrafficDemand) -> ServingStep {
        self.0.step_serving(t_s, drive, demand)
    }
}

/// AT&T schedules mmWave uplink abysmally *on the move*: §5.2 reports 90 %
/// of AT&T mmWave UL driving samples below 0.5 Mbps (beam tracking on the
/// uplink collapses); its static UL baselines are fine.
fn ul_share_penalty(op: Operator, tech: Technology, speed_mps: f64) -> f64 {
    if op == Operator::Att && tech == Technology::Nr5gMmWave && speed_mps > 1.0 {
        0.01
    } else {
        1.0
    }
}

fn tech_idx(t: Technology) -> usize {
    crate::cell::tech_index(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::build_cells;

    use wheels_geo::trip::DrivePlan;

    fn setup(op: Operator) -> (DrivePlan, UeRadio) {
        let plan = DrivePlan::cross_country(5);
        let db = Arc::new(build_cells(plan.route(), op, 5, 0));
        let ue = UeRadio::new(op, db, UeParams::default(), 99);
        (plan, ue)
    }

    #[test]
    fn snapshots_are_sane_over_a_drive_hour() {
        let (plan, mut ue) = setup(Operator::TMobile);
        let t0 = plan.days()[0].start_time_s as f64;
        let mut outages = 0;
        for i in 0..36_000 {
            let t = t0 + i as f64 * 0.1;
            let s = ue.step(
                t,
                &plan.state_at(t),
                TrafficDemand::Backlog(Direction::Downlink),
            );
            assert!(s.cap_dl_mbps >= 0.0 && s.cap_dl_mbps < 5_000.0);
            assert!(s.cap_ul_mbps >= 0.0 && s.cap_ul_mbps < 600.0);
            assert!((0.0..=0.9).contains(&s.bler));
            assert!(s.ca_dl >= 1 && s.ca_ul >= 1);
            if s.outage {
                outages += 1;
            }
        }
        // LTE blankets the route; outages must be rare.
        assert!(outages < 1_800, "outage ticks: {outages}");
    }

    #[test]
    fn handovers_happen_at_sane_rate() {
        let (plan, mut ue) = setup(Operator::Verizon);
        // Measure over the second hour of day 1 (suburban/highway mix —
        // the first hour is dense urban LA, where 10+ HOs/mile is expected).
        let t0 = plan.days()[0].start_time_s as f64 + 3_600.0;
        let horizon_s = 3_600.0;
        let mut hos = 0;
        let mut t = t0;
        while t < t0 + horizon_s {
            let s = ue.step(
                t,
                &plan.state_at(t),
                TrafficDemand::Backlog(Direction::Downlink),
            );
            if s.handover.is_some() {
                hos += 1;
            }
            t += 0.1;
        }
        let miles = plan.distance_in_window_m(t0, t0 + horizon_s) / wheels_geo::METERS_PER_MILE;
        let per_mile = hos as f64 / miles;
        // Fig. 11a: median 1-3 HOs/mile, extremes to 20+.
        assert!((0.2..12.0).contains(&per_mile), "{per_mile} HOs/mile");
    }

    #[test]
    fn ping_demand_yields_less_5g_than_backlog() {
        // Verizon's 5G share over 20,000 steps of `dt_s` from the first
        // day's start, for a world and UE seeded as given.
        let share_5g = |plan_seed: u64, ue_seed: u64, dt_s: f64, demand: TrafficDemand| {
            let plan = DrivePlan::cross_country(plan_seed);
            let db = Arc::new(build_cells(plan.route(), Operator::Verizon, plan_seed, 0));
            let mut ue = UeRadio::new(Operator::Verizon, db, UeParams::default(), ue_seed);
            let t0 = plan.days()[0].start_time_s as f64;
            let mut n5g = 0usize;
            for i in 0..20_000 {
                let t = t0 + i as f64 * dt_s;
                if ue.step(t, &plan.state_at(t), demand).tech.is_5g() {
                    n5g += 1;
                }
            }
            n5g as f64 / 20_000.0
        };
        let backlog = TrafficDemand::Backlog(Direction::Downlink);
        let ping = share_5g(5, 1, 0.5, TrafficDemand::Ping);
        let bulk = share_5g(5, 1, 0.5, backlog);
        assert!(bulk > ping + 0.05, "backlog {bulk:.3} vs ping {ping:.3}");
        // Fig. 1's passive-vs-active probing gap over one-second steps of
        // another world: seeded and exact, 16.2 % vs 53.5 %.
        let ping = share_5g(7, 3, 1.0, TrafficDemand::Ping);
        let bulk = share_5g(7, 3, 1.0, backlog);
        assert!(ping < bulk, "ping {ping:.3} vs backlog {bulk:.3}");
    }

    #[test]
    fn handover_blanks_capacity() {
        let (plan, mut ue) = setup(Operator::TMobile);
        let t0 = plan.days()[0].start_time_s as f64;
        let mut saw_blank = false;
        for i in 0..200_000 {
            let t = t0 + i as f64 * 0.05;
            let s = ue.step(
                t,
                &plan.state_at(t),
                TrafficDemand::Backlog(Direction::Downlink),
            );
            if s.in_handover {
                assert_eq!(s.cap_dl_mbps, 0.0);
                saw_blank = true;
                break;
            }
        }
        assert!(saw_blank, "never observed a handover interruption");
    }

    /// Drive `full` with [`UeRadio::step`] and `serving` with serving-only
    /// steps in lockstep for `n` steps of `dt_s` from the first day's
    /// start; both must report the same `(cell, tech, handover)` stream
    /// and leave their policy RNGs in the same state.
    fn assert_serving_matches_step(
        plan: &DrivePlan,
        mut full: UeRadio,
        mut serving: ServingRadio,
        demand: TrafficDemand,
        dt_s: f64,
        n: usize,
    ) {
        let t0 = plan.days()[0].start_time_s as f64;
        let mut handovers = 0;
        for i in 0..n {
            let t = t0 + i as f64 * dt_s;
            let drive = plan.state_at(t);
            let s = full.step(t, &drive, demand);
            let v = serving.step(t, &drive, demand);
            assert_eq!((s.cell, s.tech), (v.cell, v.tech), "step {i} at t={t}");
            let key = |h: Option<HandoverEvent>| {
                h.map(|h| (h.time_s.to_bits(), h.from, h.to, h.duration_ms.to_bits()))
            };
            assert_eq!(key(s.handover), key(v.handover), "handover at step {i}");
            handovers += usize::from(s.handover.is_some());
        }
        assert!(handovers > 0, "no handover in {n} steps of {dt_s} s");
        assert_eq!(
            full.rng.clone().gen::<u64>(),
            serving.0.rng.clone().gen::<u64>(),
            "policy RNGs diverged"
        );
    }

    #[test]
    fn serving_step_matches_full_step() {
        use crate::fleet::FleetParams;
        let plan = DrivePlan::cross_country(5);
        let demands = [
            TrafficDemand::Ping,
            TrafficDemand::Backlog(Direction::Downlink),
            TrafficDemand::Backlog(Direction::Uplink),
        ];
        for op in Operator::ALL {
            let db = Arc::new(build_cells(plan.route(), op, 5, 0));
            let fleet = FleetParams {
                population: 200_000,
                ..FleetParams::default()
            };
            let fleet = Arc::new(FleetLoad::build(op, &db, &fleet, 3));
            for with_fleet in [false, true] {
                let params = UeParams {
                    fleet: with_fleet.then(|| Arc::clone(&fleet)),
                    ..UeParams::default()
                };
                for (k, &demand) in demands.iter().enumerate() {
                    for dt_s in [0.1, 1.0, 10.0] {
                        let ue =
                            || UeRadio::new(op, Arc::clone(&db), params.clone(), 40 + k as u64);
                        let serving = ServingRadio::new(ue());
                        assert_serving_matches_step(&plan, ue(), serving, demand, dt_s, 20_000);
                    }
                }
            }
        }
    }

    #[test]
    fn serving_rsrp_fallback_reads_an_already_advanced_field() {
        // A serving-only step skips the snapshot's `rsrp_of` fallback.
        // The field it would read is already at this odometer, because
        // `serving_alive` caught the serving layer up (Δ ≤ 0: no draw,
        // no state change). Pin that premise after every full step.
        let plan = DrivePlan::cross_country(5);
        for op in Operator::ALL {
            let db = Arc::new(build_cells(plan.route(), op, 5, 0));
            let mut ue = UeRadio::new(op, Arc::clone(&db), UeParams::default(), 21);
            let t0 = plan.days()[0].start_time_s as f64;
            let mut checked = 0;
            for i in 0..20_000 {
                let t = t0 + i as f64 * 0.5;
                let drive = plan.state_at(t);
                ue.step(t, &drive, TrafficDemand::Ping);
                let Some(s) = ue.serving else { continue };
                let od = drive.odometer_m;
                let range = db.window_range(s.tech, od, s.tech.nominal_range_m() * 1.6);
                let layer = db.layer(s.tech);
                if let Some(pos) = range.into_iter().find(|&p| layer.ids()[p] == s.cell) {
                    assert_eq!(
                        ue.shadows.last_advanced_m(s.tech, pos),
                        Some(od),
                        "step {i}"
                    );
                    checked += 1;
                }
            }
            assert!(checked > 10_000, "{op:?}: only {checked} steps checked");
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let plan = DrivePlan::cross_country(5);
        let db = Arc::new(build_cells(plan.route(), Operator::Att, 5, 0));
        let run = || {
            let mut ue = UeRadio::new(Operator::Att, db.clone(), UeParams::default(), 7);
            let t0 = plan.days()[0].start_time_s as f64;
            let mut acc = 0.0;
            for i in 0..5_000 {
                let t = t0 + i as f64 * 0.5;
                let s = ue.step(
                    t,
                    &plan.state_at(t),
                    TrafficDemand::Backlog(Direction::Uplink),
                );
                acc += s.cap_ul_mbps;
            }
            acc
        };
        assert_eq!(run(), run());
    }
}
