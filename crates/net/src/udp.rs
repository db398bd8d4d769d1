//! The UDP transport: one socket per runtime, many virtual nodes.
//!
//! A [`UdpTransport`] owns one non-blocking `std::net::UdpSocket`, which
//! the runtime thread drains itself between timer ticks: each
//! [`Transport::try_recv`] is one `recv_from` into a single receive buffer
//! of the codec's maximum frame length, allocated once at bind time, and
//! copies the received bytes into the caller's reusable buffer. Frames that
//! arrive between drains wait in the kernel's socket buffer (`SO_RCVBUF`,
//! about 200 KB by default on Linux — a burst of some ninety typical 1 KB
//! frames), so there is no receive thread, no queue and no lock, and the
//! datagram path allocates nothing once the caller's buffer has grown to
//! the largest frame seen.
//!
//! Virtual-node multiplexing happens one layer up: frames carry their own
//! destination node id, the runtime routes them. The transport never looks
//! inside a frame.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

use pss_core::wire::NetAddr;

use crate::transport::Transport;

/// Size of the receive buffer: the codec's own frame bound, so every frame
/// `wire::encode` can legally produce fits (~32 KB at `MAX_DESCRIPTORS`;
/// typical frames are ~1 KB at the paper's c = 30). Larger datagrams are
/// truncated by the OS and then rejected by the codec's length check,
/// which the runtime counts as a decode failure.
const RECV_BUFFER_LEN: usize = pss_core::wire::MAX_FRAME_LEN;

/// Socket errors one [`Transport::try_recv`] call consumes before giving
/// up until the next call. Each failed `recv_from` clears the error it
/// reports (a signal, or an ICMP-induced error on platforms that surface
/// one on unconnected sockets), so the bound is only a guarantee that a
/// persistent error can never make the runtime thread spin.
const MAX_RECV_ERRORS: usize = 8;

/// See the [module docs](self).
pub struct UdpTransport {
    socket: UdpSocket,
    local: SocketAddr,
    /// The one datagram buffer `recv_from` writes into.
    recv_buf: Box<[u8]>,
}

impl UdpTransport {
    /// Binds a non-blocking socket (`"127.0.0.1:0"` for an ephemeral
    /// loopback port) and allocates the receive buffer.
    ///
    /// # Errors
    ///
    /// Any socket-level error from binding or configuring the socket.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let socket = UdpSocket::bind(addr)?;
        socket.set_nonblocking(true)?;
        let local = socket.local_addr()?;
        Ok(UdpTransport {
            socket,
            local,
            recv_buf: vec![0; RECV_BUFFER_LEN].into_boxed_slice(),
        })
    }

    /// The bound socket address.
    pub fn local_socket_addr(&self) -> SocketAddr {
        self.local
    }

    /// The bound address as a [`NetAddr`] (what peers put in frames).
    pub fn net_addr(&self) -> NetAddr {
        NetAddr::Sock(self.local)
    }
}

impl Transport for UdpTransport {
    fn local_addr(&self) -> NetAddr {
        NetAddr::Sock(self.local)
    }

    fn send(&mut self, to: NetAddr, frame: &[u8]) -> bool {
        match to {
            NetAddr::Sock(addr) => {
                matches!(self.socket.send_to(frame, addr), Ok(n) if n == frame.len())
            }
            NetAddr::Virtual(_) => false,
        }
    }

    fn try_recv(&mut self, buf: &mut Vec<u8>) -> Option<NetAddr> {
        for _ in 0..MAX_RECV_ERRORS {
            match self.socket.recv_from(&mut self.recv_buf) {
                Ok((n, from)) => {
                    buf.clear();
                    buf.extend_from_slice(&self.recv_buf[..n]);
                    return Some(NetAddr::Sock(from));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                // Interrupted by a signal, or a transient error such as a
                // peer's closed port reported back by ICMP: the error is
                // consumed, so try again.
                Err(_) => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn loopback_roundtrip_and_recycling() {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind("127.0.0.1:0").expect("bind b");
        let mut buf = Vec::with_capacity(64);
        let storage = buf.as_ptr();
        for i in 0..10u8 {
            assert!(a.send(b.net_addr(), &[i; 7]));
            let deadline = Instant::now() + Duration::from_secs(5);
            let from = loop {
                if let Some(from) = b.try_recv(&mut buf) {
                    break from;
                }
                assert!(Instant::now() < deadline, "frame {i} never arrived");
                std::thread::sleep(Duration::from_millis(1));
            };
            assert_eq!(from, a.net_addr());
            assert_eq!(buf, [i; 7]);
        }
        // Every frame was copied into the caller's buffer in place.
        assert_eq!(buf.as_ptr(), storage);
    }

    #[test]
    fn idle_try_recv_returns_none_at_once() {
        let mut t = UdpTransport::bind("127.0.0.1:0").expect("bind");
        let mut buf = vec![7u8; 3];
        // Non-blocking: the fastest of a few polls is far below any read
        // timeout the socket could have (the minimum shrugs off a poll the
        // scheduler happened to preempt).
        let fastest = (0..5)
            .map(|_| {
                let started = Instant::now();
                assert_eq!(t.try_recv(&mut buf), None);
                started.elapsed()
            })
            .min()
            .expect("five polls");
        assert!(fastest < Duration::from_millis(20), "{fastest:?}");
        assert_eq!(buf, [7u8; 3], "an empty poll leaves the buffer alone");
    }

    #[test]
    fn burst_sent_before_the_first_drain_arrives_in_full() {
        // Nothing drains while the burst is sent: the kernel's socket
        // buffer alone must hold it.
        const BURST: u8 = 64;
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind("127.0.0.1:0").expect("bind b");
        for i in 0..BURST {
            assert!(a.send(b.net_addr(), &[i; 1000]));
        }
        let mut buf = Vec::new();
        let mut firsts = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while firsts.len() < usize::from(BURST) && Instant::now() < deadline {
            match b.try_recv(&mut buf) {
                Some(_) => {
                    assert_eq!(buf.len(), 1000);
                    firsts.push(buf[0]);
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        firsts.sort_unstable();
        assert_eq!(firsts, (0..BURST).collect::<Vec<_>>());
    }

    /// The caller's buffer is never swapped out for one of the transport's:
    /// frames are copied into it, so a caller starting from an empty `Vec`
    /// pays one cold-start allocation and then keeps its storage.
    #[test]
    fn swapped_out_caller_buffers_flow_back_to_the_ring() {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
        let mut b = UdpTransport::bind("127.0.0.1:0").expect("bind b");
        let mut buf = Vec::new();
        let mut storages = Vec::new();
        for i in 0..10u8 {
            assert!(a.send(b.net_addr(), &[i; 3]));
            let deadline = Instant::now() + Duration::from_secs(5);
            while b.try_recv(&mut buf).is_none() {
                assert!(Instant::now() < deadline, "frame {i} never arrived");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(buf, [i; 3]);
            if storages.last() != Some(&buf.as_ptr()) {
                storages.push(buf.as_ptr());
            }
        }
        // At most the one cold-start allocation of the empty buffer.
        assert_eq!(storages.len(), 1, "caller storage changed: {storages:?}");
    }

    #[test]
    fn virtual_addresses_are_unroutable() {
        let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind");
        assert!(!a.send(NetAddr::Virtual(3), b"x"));
    }
}
