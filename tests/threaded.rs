//! The full middleware stack on the real-concurrency runtime: the same
//! gateway and group-layer state machines that the simulator drives, hosted
//! on OS threads with channel-based messaging and wall-clock timers.

use aqf::core::client::ClientConfig;
use aqf::core::{
    ClientGateway, Payload, QosSpec, SelectionPolicy, ServerConfig, ServerGateway, PRIMARY_GROUP,
    SECONDARY_GROUP,
};
use aqf::group::endpoint::GroupMembership;
use aqf::group::{EndpointConfig, GroupEndpoint, View, ViewId};
use aqf::sim::rt::{RtCluster, RtConfig, RtHosted};
use aqf::sim::{ActorId, DelayModel, SimDuration};
use aqf::workload::{ClientActor, NetMsg, ObjectKind, OpPattern, ReplicaActor};

fn view(group: aqf::group::GroupId, ids: &[usize]) -> View {
    View::new(
        group,
        ViewId(0),
        ids.iter().map(|&i| ActorId::from_index(i)).collect(),
    )
}

#[test]
fn middleware_runs_on_real_threads() {
    // Deployment: 0 = sequencer, 1 = serving primary, 2..=3 = secondaries,
    // 4 = client. Short intervals keep the wall-clock time of the test low.
    let pview = view(PRIMARY_GROUP, &[0, 1]);
    let sview = view(SECONDARY_GROUP, &[2, 3]);
    let client_id = ActorId::from_index(4);
    let ep_config = EndpointConfig {
        tick_interval: SimDuration::from_millis(100),
        failure_timeout: SimDuration::from_millis(500),
        sent_buffer_capacity: 4096,
        ..EndpointConfig::default()
    };
    let server_config = ServerConfig {
        lazy_interval: SimDuration::from_millis(300),
        clients: vec![client_id],
        ..ServerConfig::default()
    };

    let mut actors: Vec<Box<dyn RtHosted<NetMsg>>> = Vec::new();
    for i in 0..=1usize {
        let id = ActorId::from_index(i);
        let ep = GroupEndpoint::new(
            id,
            ep_config.clone(),
            vec![GroupMembership {
                view: pview.clone(),
                observers: vec![client_id, ActorId::from_index(2), ActorId::from_index(3)],
            }],
            vec![sview.clone()],
        );
        let gw = ServerGateway::new(
            id,
            pview.clone(),
            sview.clone(),
            ObjectKind::Register.make(),
            server_config.clone(),
        );
        actors.push(Box::new(ReplicaActor::new(
            ep,
            Box::new(gw),
            DelayModel::constant_ms(5),
            ObjectKind::Register,
        )));
    }
    for i in 2..=3usize {
        let id = ActorId::from_index(i);
        let ep = GroupEndpoint::new(
            id,
            ep_config.clone(),
            vec![GroupMembership {
                view: sview.clone(),
                observers: vec![client_id, ActorId::from_index(0), ActorId::from_index(1)],
            }],
            vec![pview.clone()],
        );
        let gw = ServerGateway::new(
            id,
            pview.clone(),
            sview.clone(),
            ObjectKind::Register.make(),
            server_config.clone(),
        );
        actors.push(Box::new(ReplicaActor::new(
            ep,
            Box::new(gw),
            DelayModel::constant_ms(5),
            ObjectKind::Register,
        )));
    }
    let client_ep = GroupEndpoint::new(
        client_id,
        ep_config.clone(),
        vec![],
        vec![pview.clone(), sview.clone()],
    );
    let client_gw = ClientGateway::new(
        client_id,
        pview.clone(),
        sview.clone(),
        ClientConfig {
            selection_overhead: SimDuration::from_micros(100),
            policy: SelectionPolicy::Probabilistic,
            give_up: SimDuration::from_secs(2),
            ..ClientConfig::default()
        },
    );
    actors.push(Box::new(ClientActor::new(
        client_ep,
        client_gw,
        QosSpec::new(3, SimDuration::from_millis(100), 0.5).expect("valid"),
        OpPattern::AlternatingWriteRead,
        SimDuration::from_millis(50),
        SimDuration::ZERO,
        30,
        ObjectKind::Register,
    )));

    let cluster = RtCluster::start(
        actors,
        RtConfig {
            link_delay: DelayModel::Uniform {
                lo: SimDuration::from_micros(100),
                hi: SimDuration::from_micros(500),
            },
            seed: 3,
        },
    );
    // 30 requests at ~60 ms each plus lazy propagation: a few seconds of
    // real time, padded generously for loaded CI machines.
    std::thread::sleep(std::time::Duration::from_secs(10));
    let actors = cluster.shutdown();

    let client: &ClientActor = actors[4].as_any().downcast_ref().expect("client actor");
    assert!(client.is_done(), "client finished its workload");
    assert_eq!(client.record().completed, 30);
    assert_eq!(client.record().timeouts, 0, "no request was abandoned");
    assert_eq!(client.gateway().stats().reads, 15);

    // Every replica converged on all 15 committed updates.
    for (i, actor) in actors.iter().take(4).enumerate() {
        let replica: &ReplicaActor = actor.as_any().downcast_ref().expect("replica actor");
        assert_eq!(
            replica.gateway().applied_csn(),
            15,
            "replica {i} converged on real threads"
        );
    }
    // Sanity on the payload type parameter.
    let _: &dyn RtHosted<NetMsg> = &*actors[0];
    let _ = Payload::GsnQuery { csn: 0 };
}
