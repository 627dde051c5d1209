//! Seeded protocol robustness fuzz against a live fleet server. The
//! contract being pinned:
//!
//! * a frame that *reads* (length prefix honored) but does not *decode* —
//!   unknown opcode, truncated body, trailing garbage — earns a typed
//!   error response and the connection survives;
//! * a frame that cannot be read safely — oversized length prefix — closes
//!   that connection, and the server keeps accepting new ones;
//! * a client vanishing mid-frame harms nobody else;
//! * a robustness probe whose budget the attack cannot honour (too many
//!   steps, a negative or non-finite `eps`/`alpha`) is refused with a
//!   typed error before any attack runs, and the connection survives;
//! * an image whose extents overflow when multiplied out is refused with a
//!   typed error, and the connection survives.
//!
//! Everything is driven by a seeded `StdRng` stream, so a failure reproduces
//! from the seed printed in the assertion message.

use ibrar_nn::{VggConfig, VggMini};
use ibrar_serve::protocol::{
    decode_request, decode_response, encode_request, read_frame, write_frame, Request, Response,
    MAX_FRAME, MAX_PROBE_STEPS,
};
use ibrar_serve::{
    save_to_path, Client, ModelRegistry, Opcode, ProbeSpec, Server, ServerConfig, Status,
    TRACE_FLAG,
};
use ibrar_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn temp_path() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let n = N.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("ibrar-serve-fuzz-{}-{n}.ibsc", std::process::id()))
}

fn start_fleet() -> (Server, PathBuf) {
    let mut rng = StdRng::seed_from_u64(42);
    let model = VggMini::new(VggConfig::tiny(10), &mut rng).unwrap();
    let path = temp_path();
    save_to_path(&model, &path).unwrap();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("vgg", path.clone(), move || {
        let mut rng = StdRng::seed_from_u64(999);
        Ok(Box::new(VggMini::new(VggConfig::tiny(10), &mut rng)?))
    });
    let server = Server::start(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            replicas: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    (server, path)
}

fn image() -> Tensor {
    Tensor::from_fn(&[3, 16, 16], |idx| {
        ((idx[0] * 7 + idx[1] * 3 + idx[2]) % 17) as f32 / 17.0
    })
}

/// One exchange on an existing connection; panics describe the payload.
fn exchange(stream: &mut TcpStream, body: &[u8], what: &str) -> Response {
    write_frame(stream, body).unwrap_or_else(|e| panic!("{what}: write failed: {e}"));
    let resp = read_frame(stream)
        .unwrap_or_else(|e| panic!("{what}: read failed: {e}"))
        .unwrap_or_else(|| panic!("{what}: server closed the connection"));
    decode_response(Opcode::Ping, resp).unwrap_or_else(|e| panic!("{what}: bad response: {e}"))
}

fn assert_alive(stream: &mut TcpStream, what: &str) {
    match exchange(stream, &[Opcode::Ping as u8], what) {
        Response::Pong => {}
        other => panic!("{what}: ping answered {other:?}"),
    }
}

#[test]
fn unknown_opcodes_are_typed_and_never_kill_the_connection() {
    let (mut server, path) = start_fleet();
    let mut stream = TcpStream::connect(server.addr()).unwrap();

    // Every unassigned low-7-bit opcode (0..=5 are taken, Metrics last),
    // with and without the trace flag.
    for op in 6u8..128 {
        let what = format!("opcode {op:#04x}");
        match exchange(&mut stream, &[op], &what) {
            Response::Error(Status::UnsupportedOpcode, msg) => {
                assert!(msg.contains("opcode"), "{what}: {msg}");
            }
            other => panic!("{what}: expected typed rejection, got {other:?}"),
        }
        let mut v2 = vec![op | TRACE_FLAG];
        v2.extend_from_slice(&[0xAB; 16]);
        match exchange(&mut stream, &v2, &what) {
            Response::Error(Status::UnsupportedOpcode, _) => {}
            other => panic!("{what} (v2): expected typed rejection, got {other:?}"),
        }
    }
    assert_alive(&mut stream, "after unknown-opcode sweep");

    drop(stream);
    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn truncated_and_mangled_frames_get_typed_errors_on_a_live_connection() {
    let (mut server, path) = start_fleet();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xF0C2_5EED);

    let valid = encode_request(&Request::Classify {
        model: "vgg".into(),
        deadline_ms: 0,
        image: image(),
        with_logits: false,
    });

    // Truncations of a valid frame at seeded offsets (plus the structural
    // corners: empty body, opcode-only, one-off-full).
    let mut cuts: Vec<usize> = vec![0, 1, valid.len() - 1];
    for _ in 0..40 {
        cuts.push(rng.gen_range(0..valid.len()));
    }
    for cut in cuts {
        let what = format!("classify truncated to {cut} bytes");
        match exchange(&mut stream, &valid[..cut], &what) {
            Response::Error(Status::BadRequest | Status::UnsupportedOpcode, msg) => {
                assert!(!msg.is_empty(), "{what}: empty error message");
            }
            other => panic!("{what}: expected typed rejection, got {other:?}"),
        }
    }

    // Trailing garbage after a complete request is rejected, not ignored.
    let mut padded = valid.to_vec();
    padded.extend_from_slice(&[0x5A; 3]);
    match exchange(&mut stream, &padded, "classify with trailing bytes") {
        Response::Error(Status::BadRequest, msg) => {
            assert!(msg.contains("trailing"), "{msg}");
        }
        other => panic!("trailing bytes: expected BadRequest, got {other:?}"),
    }

    // Seeded garbage bodies behind each *known* opcode byte. Noise can
    // occasionally form a valid empty-body request (Ping, Health), so the
    // assertion is on the raw frame: the server always answers with a
    // framed reply whose status byte is a known code — never a panic, a
    // hang, or a dropped connection.
    for round in 0..60 {
        let op = [0u8, 1, 2, 3, 4, 5][rng.gen_range(0..6usize)];
        let flag = if rng.gen_range(0..2u32) == 0 {
            0
        } else {
            TRACE_FLAG
        };
        let len = rng.gen_range(0..64usize);
        let mut body = vec![op | flag];
        for _ in 0..len {
            body.push(rng.next_u64() as u8);
        }
        let what = format!("garbage round {round} (opcode {op}, flag {flag:#x}, len {len})");
        write_frame(&mut stream, &body).unwrap_or_else(|e| panic!("{what}: write failed: {e}"));
        let resp = read_frame(&mut stream)
            .unwrap_or_else(|e| panic!("{what}: read failed: {e}"))
            .unwrap_or_else(|| panic!("{what}: server closed the connection"));
        assert!(!resp.is_empty(), "{what}: empty response frame");
        assert!(resp[0] <= 6, "{what}: unknown status byte {}", resp[0]);
    }
    assert_alive(&mut stream, "after mangled-frame sweep");

    // The whole time, a well-formed client on another connection works.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.classify("vgg", &image(), 0).unwrap() < 10);

    drop(stream);
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn out_of_range_probe_budgets_are_typed_errors_on_a_live_connection() {
    let (mut server, path) = start_fleet();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let probe = |spec: ProbeSpec| {
        encode_request(&Request::RobustnessProbe {
            model: "vgg".into(),
            label: 0,
            spec,
            image: image(),
        })
    };
    let (pgd, fgsm) = (ProbeSpec::pgd_default(), ProbeSpec::fgsm_default());

    // `steps = u32::MAX` would run PGD for billions of iterations on the
    // connection thread; a NaN `eps` would skip the ε-ball projection.
    let cases = [
        (
            "steps u32::MAX",
            ProbeSpec {
                steps: u32::MAX,
                ..pgd
            },
        ),
        (
            "steps max + 1",
            ProbeSpec {
                steps: MAX_PROBE_STEPS + 1,
                ..pgd
            },
        ),
        (
            "NaN eps",
            ProbeSpec {
                eps: f32::NAN,
                ..pgd
            },
        ),
        (
            "infinite eps",
            ProbeSpec {
                eps: f32::INFINITY,
                ..pgd
            },
        ),
        ("negative eps", ProbeSpec { eps: -0.01, ..pgd }),
        (
            "NaN alpha",
            ProbeSpec {
                alpha: f32::NAN,
                ..pgd
            },
        ),
        (
            "-infinite alpha",
            ProbeSpec {
                alpha: f32::NEG_INFINITY,
                ..pgd
            },
        ),
        (
            "NaN FGSM eps",
            ProbeSpec {
                eps: f32::NAN,
                ..fgsm
            },
        ),
    ];
    for (what, spec) in cases {
        match exchange(&mut stream, &probe(spec), what) {
            Response::Error(Status::BadRequest, msg) => {
                assert!(msg.contains("probe"), "{what}: {msg}");
            }
            other => panic!("{what}: expected BadRequest, got {other:?}"),
        }
    }
    assert_alive(&mut stream, "after out-of-range probes");

    // The bound itself still decodes, and an in-range probe is answered.
    let at_max = ProbeSpec {
        steps: MAX_PROBE_STEPS,
        ..pgd
    };
    match decode_request(probe(at_max)) {
        Ok(Request::RobustnessProbe { spec, .. }) => assert_eq!(spec, at_max),
        other => panic!("probe at the step bound: {other:?}"),
    }
    let mut client = Client::connect(server.addr()).unwrap();
    client.robustness_probe("vgg", &image(), 0, pgd).unwrap();

    drop(stream);
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn classify_image_with_overflowing_extents_is_a_typed_error() {
    let (mut server, path) = start_fleet();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // A decoder that panics leaves this socket open and unanswered: fail
    // on a timeout instead of hanging.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let valid = encode_request(&Request::Classify {
        model: "vgg".into(),
        deadline_ms: 0,
        image: image(),
        with_logits: false,
    });
    let prefix = &valid[..valid.len() - image().encode().len()];
    // 2^62 elements make the byte count wrap to 0; 2^32 · 2^32 wraps the
    // element count itself to 0.
    for dims in [&[1u64 << 62][..], &[1 << 32, 1 << 32]] {
        let mut body = prefix.to_vec();
        body.extend_from_slice(b"IBT1");
        body.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for d in dims {
            body.extend_from_slice(&d.to_le_bytes());
        }
        let what = format!("classify image with extents {dims:?}");
        match exchange(&mut stream, &body, &what) {
            Response::Error(Status::BadRequest, msg) => {
                assert!(msg.contains("tensor"), "{what}: {msg}");
            }
            other => panic!("{what}: expected BadRequest, got {other:?}"),
        }
    }
    assert_alive(&mut stream, "after overflowing extents");

    drop(stream);
    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn oversized_prefix_closes_only_that_connection() {
    let (mut server, path) = start_fleet();

    // A length prefix beyond MAX_FRAME must not trigger a 4 GiB allocation;
    // the server abandons the connection instead of reading the "body".
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let huge = (MAX_FRAME as u32) + 1;
    stream.write_all(&huge.to_le_bytes()).unwrap();
    stream.write_all(&[0u8; 64]).unwrap();
    let closed = match read_frame(&mut stream) {
        Ok(None) => true, // clean close
        Err(_) => true,   // reset mid-read
        Ok(Some(body)) => panic!("server answered an oversized frame: {body:?}"),
    };
    assert!(closed);

    // The listener is unharmed: fresh connections serve normally.
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();

    drop(stream);
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn mid_frame_disconnects_leave_the_server_accepting() {
    let (mut server, path) = start_fleet();
    let mut rng = StdRng::seed_from_u64(0xDEAD_F00D);

    for round in 0..8 {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Promise a body, deliver a seeded fraction of it, vanish.
        let promised = 32 + rng.gen_range(0..1024u32);
        let delivered = rng.gen_range(0..promised as usize);
        stream.write_all(&promised.to_le_bytes()).unwrap();
        let junk: Vec<u8> = (0..delivered).map(|_| rng.next_u64() as u8).collect();
        stream.write_all(&junk).unwrap();
        drop(stream);

        let mut client = Client::connect(server.addr()).unwrap();
        client
            .ping()
            .unwrap_or_else(|e| panic!("round {round}: server stopped accepting: {e}"));
    }

    server.shutdown();
    let _ = std::fs::remove_file(path);
}
