//! Glue between the gateway wire types and the observability layer.
//!
//! The gateways emit [`aqf_obs::Event`]s through an [`aqf_obs::ObsHandle`]
//! installed by the host (see [`crate::ServerProtocol::set_obs`] and
//! [`crate::client::ClientGateway::set_obs`]). The handle defaults to
//! disabled, under the same contract as overload protection switched off:
//! an uninstalled sink must leave every gateway decision, RNG draw, and
//! action sequence bit-identical — observability records, it never steers.

pub use aqf_obs::{Event as ObsEvent, ObsHandle};

use crate::wire::RequestId;

/// Converts a wire [`RequestId`] into the trace's request reference.
pub fn req_ref(id: RequestId) -> aqf_obs::ReqId {
    aqf_obs::ReqId {
        client: id.client,
        seq: id.seq,
    }
}
