//! The common interface of server-side timed-consistency handlers.
//!
//! The framework "allows different ordering guarantees to be implemented as
//! timed consistency handlers in the AQuA gateway" (paper §4, Figure 2): a
//! document-editing service uses the sequential (total-order) handler while
//! a banking service uses the FIFO handler. Hosts program against this
//! trait so a deployment can pick its handler per service.

use crate::object::ReplicatedObject;
use crate::qos::OrderingGuarantee;
use crate::shell::{ServerAction, ServerStats};
use crate::wire::Payload;
use aqf_group::View;
use aqf_sim::{ActorId, SimDuration, SimTime};
use std::rc::Rc;

/// A server-side gateway protocol: consumes payloads, timers, and view
/// changes; appends [`ServerAction`]s for the host to execute to the
/// caller-owned `out` sink (never clearing it), so a host that keeps one
/// buffer across callbacks allocates nothing for the action list.
///
/// Implemented once, by [`crate::shell::Replica`], for every ordering
/// discipline: sequential ([`crate::server::ServerGateway`], the GSN
/// protocol), causal ([`crate::causal::CausalServerGateway`]) and per-client
/// FIFO ([`crate::fifo::FifoServerGateway`]). Not `Send`: a gateway shares
/// views and envelopes by `Rc` with the single-threaded `World` that hosts
/// it.
pub trait ServerProtocol {
    /// The ordering guarantee this handler provides.
    fn ordering(&self) -> OrderingGuarantee;

    /// Called once when the host starts.
    fn on_start(&mut self, now: SimTime, out: &mut Vec<ServerAction>);

    /// Called when the host restarts after a crash; `fresh_object` replaces
    /// the lost application state until a state transfer completes.
    fn on_restart(
        &mut self,
        fresh_object: Box<dyn ReplicatedObject>,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    );

    /// Called for each protocol payload.
    fn on_payload(
        &mut self,
        from: ActorId,
        payload: Payload,
        now: SimTime,
        out: &mut Vec<ServerAction>,
    );

    /// Called when the host begins servicing a unit of work, right when it
    /// executes [`ServerAction::StartService`]: records the service start
    /// for `t_q`/`t_s` measurement.
    fn on_service_start(&mut self, token: u64, now: SimTime);

    /// Called when the modelled service time of a unit of work elapses:
    /// apply the operation to the object, reply to the client, publish
    /// measurements, and start the next unit of work.
    ///
    /// # Panics
    ///
    /// Panics if `token` is not the unit of work in service.
    fn on_service_done(&mut self, token: u64, now: SimTime, out: &mut Vec<ServerAction>);

    /// Called when the lazy propagation timer fires: snapshot the state,
    /// multicast it to the secondary group, announce fresh staleness
    /// bookkeeping to the clients, and re-arm.
    fn on_lazy_timer(&mut self, now: SimTime, out: &mut Vec<ServerAction>);

    /// Called when the watchdog timer armed by
    /// [`ServerAction::ArmWatchdog`] elapses: expire whatever round is
    /// overdue (re-query, reopen, give up) and re-arm while one stays open.
    fn on_watchdog(&mut self, now: SimTime, out: &mut Vec<ServerAction>);

    /// Called on every installed or observed view change. The view is
    /// shared with the group layer's own copy (and every other observer
    /// of the same announce round); implementations store the `Rc`
    /// rather than cloning the membership list.
    fn on_view(&mut self, view: Rc<View>, now: SimTime, out: &mut Vec<ServerAction>);

    /// Whether this replica currently sequences updates (always false for
    /// handlers without a sequencer).
    fn is_sequencer(&self) -> bool;

    /// Whether this replica currently acts as the lazy publisher.
    fn is_publisher(&self) -> bool;

    /// Committed version/sequence number.
    fn csn(&self) -> u64;

    /// Updates actually applied to the hosted object.
    fn applied_csn(&self) -> u64;

    /// Highest global sequence/version knowledge.
    fn gsn(&self) -> u64;

    /// Whether the replica's state is synchronized (false between restart
    /// and state transfer).
    fn is_synced(&self) -> bool;

    /// Protocol counters.
    fn stats(&self) -> ServerStats;

    /// Installs an observability handle; it stays installed across
    /// restarts. Installing a disabled handle (or none) must leave the
    /// handler's behaviour bit-identical — observability records, it never
    /// steers.
    fn set_obs(&mut self, obs: crate::obs::ObsHandle);

    /// Applies crash semantics to the handler's stable storage, if any:
    /// unsynced appends are lost (possibly leaving a torn tail or a flipped
    /// bit, per the fault configuration) and any staged-but-unrenamed
    /// snapshot is discarded. Hosts call this from their restart path
    /// *before* [`ServerProtocol::on_restart`], mirroring reality: the disk
    /// takes its damage at the crash, and whatever survived is what
    /// `on_restart` gets to replay.
    fn crash_storage(&mut self);
}

/// A synchronous host for tests and benches: runs every
/// [`ServerAction::StartService`] found in `actions` to completion, each
/// taking `service_time`, with the follow-up actions appended to the same
/// buffer (which may start further units). Returns the time the last unit
/// finished.
pub fn drive_service(
    gw: &mut dyn ServerProtocol,
    actions: &mut Vec<ServerAction>,
    mut now: SimTime,
    service_time: SimDuration,
) -> SimTime {
    while let Some(pos) = actions
        .iter()
        .position(|a| matches!(a, ServerAction::StartService { .. }))
    {
        let ServerAction::StartService { token } = actions.remove(pos) else {
            unreachable!("position() matched a StartService")
        };
        gw.on_service_start(token, now);
        now += service_time;
        gw.on_service_done(token, now, actions);
    }
    now
}
