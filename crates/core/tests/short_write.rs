//! Regression: a server that acknowledges a write with the wrong byte count
//! must surface as a typed [`DpfsError::ShortWrite`]; the old client threw
//! the acknowledged count away, silently accepting truncated writes.

use std::net::{SocketAddr, TcpListener, TcpStream};

use dpfs_core::{ClientOptions, Dpfs, DpfsError, Hint, Resolver};
use dpfs_meta::ServerInfo;
use dpfs_metad::{MetaServer, MetadConfig};
use dpfs_proto::{frame, Request, Response};

/// A minimal protocol-speaking server that acknowledges every write with
/// one byte fewer than the request carried.
fn start_lying_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            std::thread::spawn(move || serve(stream));
        }
    });
    addr
}

fn serve(mut stream: TcpStream) {
    loop {
        let Ok(frame) = frame::read_frame_any(&mut stream) else {
            return;
        };
        let Ok(req) = Request::decode(frame.payload) else {
            return;
        };
        let resp = match req {
            Request::Write { ranges, .. } => {
                let total: u64 = ranges.iter().map(|(_, d)| d.len() as u64).sum();
                Response::Written { bytes: total - 1 }
            }
            _ => Response::Pong,
        };
        if frame::write_frame_v2(&mut stream, frame.corr_id, &resp.encode()).is_err() {
            return;
        }
    }
}

#[test]
fn short_write_ack_surfaces_typed_error() {
    let addr = start_lying_server();
    let metad = MetaServer::start(MetadConfig::in_memory()).unwrap();
    let mut resolver = Resolver::direct();
    resolver.alias("liar", &addr.to_string());
    let metad_addr = metad.addr().to_string();
    let fs = Dpfs::mount_remote(&metad_addr, resolver, ClientOptions::default()).unwrap();
    fs.register_server(&ServerInfo {
        name: "liar".into(),
        capacity: i64::MAX,
        performance: 1,
    })
    .unwrap();

    let mut f = fs.create("/f", &Hint::linear(64, 0)).unwrap();
    let err = f.write_bytes(0, &[9u8; 64]).unwrap_err();
    match err {
        DpfsError::ShortWrite {
            server,
            expected,
            written,
        } => {
            assert_eq!(server, "liar");
            assert_eq!(expected, 64);
            assert_eq!(written, 63);
        }
        other => panic!("expected ShortWrite, got {other}"),
    }
}
