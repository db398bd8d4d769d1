//! Allocation accounting for the UDP receive path.
//!
//! `UdpTransport::try_recv` reads each datagram into one buffer the
//! transport allocated at bind time and copies it into the caller's
//! reusable buffer. Once that buffer has grown to the frame size, the
//! datagram path must not touch the allocator at all — the regression this
//! test pins is any per-frame buffer allocation creeping back in.
//!
//! Kept in its own integration-test binary because the `#[global_allocator]`
//! is process-wide; the single `#[test]` keeps the measurement window free
//! of concurrent test allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use pss_net::{Transport, UdpTransport};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the system allocator; the counter is the
// only addition and is atomic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Sends one frame a → b and spins until b yields it into `buf`.
fn roundtrip(a: &mut UdpTransport, b: &mut UdpTransport, buf: &mut Vec<u8>, frame: &[u8]) {
    assert!(a.send(b.local_addr(), frame));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if b.try_recv(buf).is_some() {
            assert_eq!(buf, frame);
            return;
        }
        assert!(Instant::now() < deadline, "frame never arrived");
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[test]
fn steady_state_udp_receive_is_nearly_allocation_free() {
    let mut a = UdpTransport::bind("127.0.0.1:0").expect("bind a");
    let mut b = UdpTransport::bind("127.0.0.1:0").expect("bind b");
    let frame = [0xabu8; 900]; // a typical c = 30 frame size
    let mut buf = Vec::new();

    // Warm up: the caller's buffer grows to the frame size.
    for _ in 0..32 {
        roundtrip(&mut a, &mut b, &mut buf, &frame);
    }

    const FRAMES: u64 = 200;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..FRAMES {
        roundtrip(&mut a, &mut b, &mut buf, &frame);
    }
    let during = ALLOCATIONS.load(Ordering::Relaxed) - before;

    // The bound leaves slack for an incidental allocation elsewhere in the
    // process (the test harness), not for one per frame.
    assert!(
        during <= 2,
        "{during} allocations for {FRAMES} frames — the receive path allocates"
    );
}
