//! Failure-path coverage: malformed frames, hostile frame sizes, clients
//! vanishing mid-request, unknown models/platforms, and explicit
//! backpressure. The server must answer what it can answer, drop what it
//! must drop, and keep serving everyone else.

use hwpr_core::{HwPrNas, ModelConfig, Precision, SurrogateDataset, TrainConfig};
use hwpr_hwmodel::{Platform, SimBench, SimBenchConfig};
use hwpr_nasbench::{Architecture, Dataset, SearchSpaceId};
use hwpr_serve::{
    protocol, ModelRegistry, PredictKind, ServeClient, ServeConfig, ServeError, Server,
};
use std::sync::Arc;
use std::time::Duration;

fn trained() -> Arc<HwPrNas> {
    let bench = SimBench::generate(SimBenchConfig {
        space: SearchSpaceId::NasBench201,
        sample_size: Some(32),
        seed: 21,
    });
    let data =
        SurrogateDataset::from_simbench(&bench, Dataset::Cifar10, Platform::EdgeGpu).unwrap();
    let (model, _) = HwPrNas::fit(&data, &ModelConfig::tiny(), &TrainConfig::tiny()).unwrap();
    model.freeze_with(8, Precision::F32);
    Arc::new(model)
}

fn probe(n: usize) -> Vec<Architecture> {
    (0..n as u64)
        .map(|i| Architecture::nb201_from_index(i * 13 % 15625).unwrap())
        .collect()
}

fn started(config: ServeConfig) -> Server {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish("default", trained());
    Server::start(registry, config).unwrap()
}

#[test]
fn malformed_requests_get_error_replies_and_the_connection_survives() {
    let server = started(ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();

    // bad protocol version
    client.send_raw(&[99, 1, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap();
    let (status, _, message) = client.recv_raw().unwrap();
    assert_eq!(status, protocol::STATUS_ERROR);
    assert!(message.contains("version"), "got: {message}");

    // truncated predict body
    client
        .send_raw(&[protocol::PROTOCOL_VERSION, 1, 7, 0, 0, 0, 0, 0, 0, 0])
        .unwrap();
    let (status, request_id, _) = client.recv_raw().unwrap();
    assert_eq!(status, protocol::STATUS_ERROR);
    assert_eq!(request_id, 7, "error must echo the request id");

    // unknown model / unknown platform are request-level errors
    let archs = probe(3);
    let err = client
        .predict_scores("ghost", Platform::EdgeGpu, &archs)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Remote(ref m) if m.contains("ghost")),
        "{err}"
    );
    let err = client
        .predict_scores("default", Platform::RaspberryPi4, &archs)
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Remote(ref m) if m.contains("latency head")),
        "{err}"
    );

    // ...and the same connection still serves valid requests afterwards
    let scores = client
        .predict_scores("default", Platform::EdgeGpu, &archs)
        .unwrap();
    assert_eq!(scores.len(), archs.len());
}

#[test]
fn oversized_frames_drop_the_connection_but_not_the_server() {
    let server = started(ServeConfig::default());
    let mut hostile = ServeClient::connect(server.addr()).unwrap();
    let huge = vec![0u8; protocol::MAX_FRAME + 1];
    // the server must sever this connection rather than buffer the frame.
    // It reads only the length prefix, so it may close while the rest of
    // the frame is still being written: the write then fails with a
    // broken pipe or a reset instead of completing
    if let Err(e) = hostile.send_raw(&huge) {
        assert!(
            matches!(&e, ServeError::Io(io) if matches!(
                io.kind(),
                std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
            )),
            "unexpected send failure: {e}"
        );
    }
    assert!(hostile.recv_raw().is_err());

    // fresh connections are unaffected
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let scores = client
        .predict_scores("default", Platform::EdgeGpu, &probe(4))
        .unwrap();
    assert_eq!(scores.len(), 4);
}

#[test]
fn client_disconnect_mid_request_does_not_poison_the_worker() {
    let server = started(ServeConfig {
        // hold the coalesce window open long enough that the client is
        // gone before its batch executes
        batch_deadline: Duration::from_millis(250),
        max_batch: 1024,
        // one worker runs batches strictly in admission order
        workers: 1,
        ..ServeConfig::default()
    });
    {
        let mut doomed = ServeClient::connect(server.addr()).unwrap();
        doomed
            .send_predict(PredictKind::Scores, "default", Platform::EdgeGpu, &probe(5))
            .unwrap();
        // the connection's reader answers this inline, after admitting
        // the request before it
        doomed.list_models().unwrap();
        // dropped here, with the request still queued
    }
    // an objectives request cannot join the doomed scores batch, so the
    // worker answers it only after that batch has run
    let mut witness = ServeClient::connect(server.addr()).unwrap();
    witness
        .predict_objectives("default", Platform::EdgeGpu, &probe(1))
        .unwrap();
    // the worker wrote into a dead socket, warned, and moved on
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let scores = client
        .predict_scores("default", Platform::EdgeGpu, &probe(6))
        .unwrap();
    assert_eq!(scores.len(), 6);
}

#[test]
fn full_queue_sheds_with_an_explicit_overloaded_response() {
    let server = started(ServeConfig {
        queue_cap: 1,
        max_batch: 4096,
        // nothing leaves the queue until the deadline, so the second
        // pipelined request must find it full
        batch_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let archs = probe(2);
    let first = client
        .send_predict(PredictKind::Scores, "default", Platform::EdgeGpu, &archs)
        .unwrap();
    let second = client
        .send_predict(PredictKind::Scores, "default", Platform::EdgeGpu, &archs)
        .unwrap();

    // the shed reply arrives first (the reader thread sends it inline)
    let (status, request_id, message) = client.recv_raw().unwrap();
    assert_eq!(status, protocol::STATUS_OVERLOADED);
    assert_eq!(request_id, second);
    assert!(message.contains("queue full"), "got: {message}");

    // the admitted request is still served once the window closes
    let mut scores = Vec::new();
    let answered = client.recv_scores(&mut scores).unwrap();
    assert_eq!(answered, first);
    assert_eq!(scores.len(), archs.len());
}

#[test]
fn stopping_the_server_is_idempotent_and_closes_clients_cleanly() {
    let mut server = started(ServeConfig::default());
    let mut client = ServeClient::connect(server.addr()).unwrap();
    client
        .predict_scores("default", Platform::EdgeGpu, &probe(3))
        .unwrap();
    server.stop();
    server.stop();
    // the closed connection surfaces as an error, not a hang
    assert!(client
        .predict_scores("default", Platform::EdgeGpu, &probe(3))
        .is_err());
}
