//! Per-layer costs measured from outside, on state captured from a
//! workload: every timing calls the layer's public functions directly
//! (`View::merge_select_from_slice`, `GossipNode` exchange calls,
//! `wire::encode`/`decode`, `Transport::send`/`try_recv`). Nothing here
//! instruments the library.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pss_core::view::reference;
use pss_core::wire::{self, DecodeScratch, FrameKind, NetAddr};
use pss_core::{
    Arena, GossipNode, MergeScratch, NodeDescriptor, NodeId, PeerSamplingNode, ProtocolConfig,
    View, ViewSelection,
};
use pss_net::{Transport, UdpTransport};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use pss_sim::workload::measure_rows;
use pss_sim::WorkloadTarget;

use crate::common::C;
use crate::report::Report;
use crate::stats;

/// Live views captured at the end of a workload's timed phase.
pub struct Captured {
    /// The protocol the views were built under.
    pub config: ProtocolConfig,
    /// `(owner, view)` pairs, owners distinct.
    pub views: Vec<(NodeId, View)>,
}

/// Views kept per capture: enough that the working set spans many views,
/// few enough that capturing stays cheap.
pub const CAPTURE: usize = 2048;

impl Captured {
    /// Captures up to [`CAPTURE`] non-empty views, evenly spaced over the
    /// live population as `for_each` enumerates it.
    pub fn from_live(
        config: &ProtocolConfig,
        live: usize,
        for_each: impl FnOnce(&mut dyn FnMut(NodeId, &View)),
    ) -> Self {
        let stride = (live / CAPTURE).max(1);
        let mut views = Vec::with_capacity(CAPTURE);
        let mut k = 0usize;
        for_each(&mut |id, view| {
            if k.is_multiple_of(stride) && views.len() < CAPTURE && !view.is_empty() {
                views.push((id, view.clone()));
            }
            k += 1;
        });
        assert!(views.len() >= 2, "need at least two captured views");
        Captured {
            config: config.clone(),
            views,
        }
    }

    /// The content node `i` pushes in an exchange, as its receiver
    /// absorbs it: `(self, 0)` spliced in after the hop-0 entries, then
    /// aged by the transfer age of the freshness mode.
    fn outgoing(&self, i: usize) -> Vec<NodeDescriptor> {
        let (id, view) = &self.views[i];
        let entries = view.descriptors();
        let at = entries.partition_point(|d| d.hop_count() == 0);
        let transfer = self.config.freshness().transfer_age();
        entries[..at]
            .iter()
            .copied()
            .chain(std::iter::once(NodeDescriptor::fresh(*id)))
            .chain(entries[at..].iter().copied())
            .map(|d| d.aged_by(transfer))
            .collect()
    }

    /// A partner index for operation `k` on view `i`, never `i` itself.
    fn partner(&self, k: usize, i: usize) -> usize {
        let m = self.views.len();
        let j = (k.wrapping_mul(7919).wrapping_add(13)) % m;
        if j == i {
            (j + 1) % m
        } else {
            j
        }
    }
}

/// Per-operation nanoseconds of `op`, one sample per batch of `batch`
/// operations, interleaving the operations in `ops` batch by batch so
/// host noise hits them alike. Runs `rounds` batches of each.
fn interleaved<const K: usize>(
    rounds: usize,
    batch: usize,
    ops: &mut [&mut dyn FnMut(usize); K],
) -> [Vec<f64>; K] {
    let mut samples: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(rounds));
    let mut k = 0usize;
    for _ in 0..rounds {
        for (op, out) in ops.iter_mut().zip(samples.iter_mut()) {
            let started = Instant::now();
            for _ in 0..batch {
                op(k);
                k += 1;
            }
            out.push(started.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
    samples
}

fn median(samples: &[f64]) -> f64 {
    stats::summarize(samples).map_or(0.0, |s| s.median)
}

/// Batches per layer timing, and operations per batch.
const ROUNDS: usize = 200;
const BATCH: usize = 256;

/// The per-operation costs the accounting reports combine, in ns.
pub struct Costs {
    /// `view.absorb_ns`.
    pub absorb_ns: f64,
    /// `node.exchange_ns`.
    pub exchange_ns: f64,
    /// `wire.encode_ns`.
    pub encode_ns: f64,
    /// `wire.decode_ns`.
    pub decode_ns: f64,
    /// `udp.send_ns`.
    pub send_ns: f64,
    /// `udp.recv_ns`.
    pub recv_ns: f64,
}

/// Times every layer that runs on captured views: view algebra, node
/// exchange, wire codec and UDP transport.
pub fn measure(captured: &Captured, report: &mut Report) -> Costs {
    let absorb_ns = view_algebra(captured, report);
    let exchange_ns = node_exchange(captured, report);
    let (encode_ns, decode_ns) = wire_codec(captured, report);
    let (send_ns, recv_ns) = udp_transport(captured, report);
    Costs {
        absorb_ns,
        exchange_ns,
        encode_ns,
        decode_ns,
        send_ns,
        recv_ns,
    }
}

/// View algebra: the fused absorb, selection, and the optimised merge
/// against the retained reference merge. Returns the absorb's median ns.
pub fn view_algebra(captured: &Captured, report: &mut Report) -> f64 {
    let c = captured.config.view_size();
    let vs = captured.config.policy().view_selection;
    let m = captured.views.len();
    let messages: Vec<Vec<NodeDescriptor>> = (0..m).map(|i| captured.outgoing(i)).collect();
    let mut work: Vec<View> = captured.views.iter().map(|(_, v)| v.clone()).collect();
    let mut scratch = MergeScratch::default();
    let mut rng = SmallRng::seed_from_u64(0x00ab_500b);
    let [absorb] = interleaved(
        ROUNDS,
        BATCH,
        &mut [&mut |k| {
            let i = k % m;
            let j = captured.partner(k, i);
            let ok = work[i].merge_select_from_slice(
                &messages[j],
                Some(captured.views[i].0),
                vs,
                c,
                &mut rng,
                &mut scratch,
            );
            assert!(ok, "protocol messages are well-formed");
        }],
    );
    let absorb_ns = median(&absorb);
    report.sampled("view.absorb_ns", absorb_ns, "ns", absorb.len());

    // Selection input: the merge of two captured views, up to 2c + 1
    // entries, copied fresh per operation (the copy is part of the cost,
    // as in the view_ops bench).
    let merged: Vec<View> = (0..m)
        .map(|i| {
            let (id, view) = &captured.views[i];
            view.merge(&captured.views[captured.partner(i, i)].1, Some(*id))
        })
        .collect();
    let mut rng_head = SmallRng::seed_from_u64(1);
    let mut rng_rand = SmallRng::seed_from_u64(2);
    let [head, rand] = interleaved(
        ROUNDS,
        BATCH,
        &mut [
            &mut |k| {
                let mut v = merged[k % m].clone();
                v.select(ViewSelection::Head, c, &mut rng_head);
                black_box(v);
            },
            &mut |k| {
                let mut v = merged[k % m].clone();
                v.select(ViewSelection::Rand, c, &mut rng_rand);
                black_box(v);
            },
        ],
    );
    let (head_ns, rand_ns) = (median(&head), median(&rand));
    report.sampled("view.select_head_ns", head_ns, "ns", head.len());
    report.sampled("view.select_rand_ns", rand_ns, "ns", rand.len());
    report.value(
        "view.select_rand_vs_head",
        stats::ratio(rand_ns, head_ns),
        "ratio",
        "select_rand_ns / select_head_ns",
    );

    let mut out = View::new();
    let mut scratch = MergeScratch::default();
    let [optimised, naive] = interleaved(
        ROUNDS,
        BATCH / 4,
        &mut [
            &mut |k| {
                let i = k % m;
                let (id, a) = &captured.views[i];
                let b = &captured.views[captured.partner(k, i)].1;
                a.merge_into(b, Some(*id), &mut out, &mut scratch);
                black_box(out.len());
            },
            &mut |k| {
                let i = k % m;
                let (id, a) = &captured.views[i];
                let b = &captured.views[captured.partner(k, i)].1;
                black_box(reference::merge(
                    a.descriptors(),
                    b.descriptors(),
                    Some(*id),
                ));
            },
        ],
    );
    let (opt_ns, ref_ns) = (median(&optimised), median(&naive));
    report.sampled("view.merge_ns", opt_ns, "ns", optimised.len());
    report.sampled("view.merge_reference_ns", ref_ns, "ns", naive.len());
    report.value(
        "view.merge_vs_reference",
        stats::ratio(ref_ns, opt_ns),
        "ratio",
        "reference merge ns / optimised merge ns, same captured views",
    );
    absorb_ns
}

/// Node exchange: `initiate` + `handle_request` + `handle_reply` between
/// nodes rebuilt from the captured views. Returns the median ns.
fn node_exchange(captured: &Captured, report: &mut Report) -> f64 {
    let mut nodes: Vec<PeerSamplingNode> = captured
        .views
        .iter()
        .enumerate()
        .map(|(i, (id, view))| {
            let mut node = PeerSamplingNode::with_seed(*id, captured.config.clone(), i as u64);
            node.init(view.descriptors().iter().copied());
            node
        })
        .collect();
    let m = nodes.len();
    let mut arena = Arena::new();
    let [exchange] = interleaved(
        ROUNDS,
        BATCH,
        &mut [&mut |k| {
            let i = k % m;
            let j = captured.partner(k, i);
            let (a, b) = if i < j {
                let (lo, hi) = nodes.split_at_mut(j);
                (&mut lo[i], &mut hi[0])
            } else {
                let (lo, hi) = nodes.split_at_mut(i);
                (&mut hi[0], &mut lo[j])
            };
            if let Some(ex) = a.initiate(&mut arena) {
                if let Some(reply) = b.handle_request(&mut arena, a.id(), ex.request) {
                    a.handle_reply(&mut arena, b.id(), reply);
                }
            }
        }],
    );
    let ns = median(&exchange);
    report.sampled("node.exchange_ns", ns, "ns", exchange.len());
    ns
}

/// A loopback address for encoding descriptor addresses.
fn loopback(port: u16) -> NetAddr {
    NetAddr::Sock(std::net::SocketAddr::from(([127, 0, 0, 1], port)))
}

/// Encoded request and reply frames, one each per captured view.
fn frames(captured: &Captured) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(2 * captured.views.len());
    for i in 0..captured.views.len() {
        let descriptors = captured.outgoing(i);
        let src = captured.views[i].0;
        let dst = captured.views[captured.partner(i, i)].0;
        for kind in [FrameKind::Request, FrameKind::Reply] {
            let mut buf = Vec::new();
            wire::encode(
                &mut buf,
                kind,
                kind == FrameKind::Request,
                src,
                dst,
                loopback(9000),
                &descriptors,
                |id| Some(loopback(9000 + (id.as_u64() % 1000) as u16)),
            )
            .expect("a view fits a frame and every id has an address");
            out.push(buf);
        }
    }
    out
}

/// Wire codec: encode and decode of c-sized request and reply frames.
/// Returns `(encode_ns, decode_ns)`.
fn wire_codec(captured: &Captured, report: &mut Report) -> (f64, f64) {
    let frames = frames(captured);
    let messages: Vec<Vec<NodeDescriptor>> = (0..captured.views.len())
        .map(|i| captured.outgoing(i))
        .collect();
    let m = messages.len();
    let mut buf = Vec::new();
    let mut out = Vec::new();
    let mut scratch = DecodeScratch::new();
    let [encode, decode] = interleaved(
        ROUNDS,
        BATCH,
        &mut [
            &mut |k| {
                let i = k % m;
                wire::encode(
                    &mut buf,
                    if k % 2 == 0 {
                        FrameKind::Request
                    } else {
                        FrameKind::Reply
                    },
                    k % 2 == 0,
                    captured.views[i].0,
                    captured.views[captured.partner(k, i)].0,
                    loopback(9000),
                    &messages[i],
                    |id| Some(loopback(9000 + (id.as_u64() % 1000) as u16)),
                )
                .expect("encodable");
                black_box(buf.len());
            },
            &mut |k| {
                let frame = wire::decode(&frames[k % frames.len()]).expect("own frames decode");
                wire::read_descriptors(&frame, &mut out, &mut scratch, |id, addr| {
                    black_box((id, addr));
                })
                .expect("own descriptors decode");
                black_box(out.len());
            },
        ],
    );
    let (enc, dec) = (median(&encode), median(&decode));
    report.sampled("wire.encode_ns", enc, "ns", encode.len());
    report.sampled("wire.decode_ns", dec, "ns", decode.len());
    // A pushpull exchange is one request frame and one reply frame.
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / captured.views.len() as f64;
    report.value(
        "wire.bytes_per_exchange",
        bytes,
        "bytes",
        "request + reply frame",
    );
    (enc, dec)
}

/// Transport: loopback UDP ping through the public `Transport` API, one
/// request frame per ping. Returns `(send_ns, recv_ns)`.
///
/// # Panics
///
/// Panics if loopback sockets cannot be bound or a frame never arrives.
fn udp_transport(captured: &Captured, report: &mut Report) -> (f64, f64) {
    let frame = frames(captured).swap_remove(0);
    let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind loopback socket");
    let mut b = UdpTransport::bind("127.0.0.1:0").expect("bind loopback socket");
    let to = b.local_addr();
    let mut buf = Vec::new();
    let pings = ROUNDS * 16;
    let mut send = Vec::with_capacity(pings);
    let mut recv = Vec::with_capacity(pings);
    for _ in 0..pings {
        let started = Instant::now();
        assert!(a.send(to, &frame), "loopback send");
        send.push(started.elapsed().as_nanos() as f64);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let started = Instant::now();
            if b.try_recv(&mut buf).is_some() {
                recv.push(started.elapsed().as_nanos() as f64);
                break;
            }
            assert!(Instant::now() < deadline, "loopback frame never arrived");
        }
    }
    let (s, r) = (median(&send), median(&recv));
    report.sampled("udp.send_ns", s, "ns", send.len());
    report.sampled("udp.recv_ns", r, "ns", recv.len());
    (s, r)
}

/// Snapshot: `WorkloadTarget::collect_rows` on a live engine, timed over
/// a few repetitions. Returns the rows for [`health`].
pub fn snapshot(target: &impl WorkloadTarget, report: &mut Report) -> Vec<(NodeId, Vec<NodeId>)> {
    let mut rows = Vec::new();
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            rows.clear();
            let started = Instant::now();
            target.collect_rows(&mut rows);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.sampled(
        "snapshot.collect_rows_ms",
        median(&samples),
        "ms",
        samples.len(),
    );
    rows
}

/// Health measurement: `measure_rows` (CSR build, in-degrees, dead links,
/// components) on a period's rows, timed over repetitions. Returns the
/// median ms.
pub fn health(
    rows: &[(NodeId, Vec<NodeId>)],
    id_space: usize,
    is_live: impl Fn(NodeId) -> bool + Copy,
    report: &mut Report,
) -> f64 {
    let samples: Vec<f64> = (0..15)
        .map(|_| {
            let started = Instant::now();
            black_box(measure_rows(id_space, rows, is_live, C));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let ms = median(&samples);
    report.sampled("health.measure_rows_ms", ms, "ms", samples.len());
    ms
}
