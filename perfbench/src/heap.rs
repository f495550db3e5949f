//! Live heap bytes and their peak, counted by the process's allocator.
//!
//! Peak resident memory (`VmHWM`) depends on which glibc arena each of the
//! server's threads happened to allocate from, and so on timing: runs of
//! the same code differ by up to 15 %. The bytes the program holds at once
//! do not, so their peak is what the benchmark compares.
//!
//! One shared counter updated on every allocation would make the server's
//! threads fight over its cache line and slow the service by half. Each
//! thread therefore keeps its own running balance and adds it to the shared
//! count once it passes [`BATCH`] bytes, and when the thread exits. The
//! peak is read at those points, so it is exact to within [`BATCH`] bytes
//! per running thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::OnceLock;

/// Bytes a thread may allocate or free before it adds them to the shared
/// count.
const BATCH: isize = 64 * 1024;

/// The system allocator, counting the bytes it hands out.
pub struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Bytes this thread allocated (positive) or freed (negative) since it
    /// last added its balance to [`LIVE`].
    static BALANCE: Cell<isize> = const { Cell::new(0) };
    /// Whether the thread's exit will add its balance: it is registered for
    /// that on its first allocation, and once it exits, every later change
    /// goes straight to [`LIVE`].
    static STATE: Cell<State> = const { Cell::new(State::New) };
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    New,
    Registered,
    Exited,
}

fn add_live(bytes: isize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

fn note(bytes: isize) {
    match STATE.get() {
        State::Exited => return add_live(bytes),
        State::New => register_exit(),
        State::Registered => {}
    }
    let balance = BALANCE.get() + bytes;
    if balance.abs() < BATCH {
        BALANCE.set(balance);
    } else {
        BALANCE.set(0);
        add_live(balance);
    }
}

#[allow(non_camel_case_types)]
type pthread_key_t = u32;

extern "C" {
    fn pthread_key_create(
        key: *mut pthread_key_t,
        destructor: Option<unsafe extern "C" fn(*mut std::ffi::c_void)>,
    ) -> i32;
    fn pthread_setspecific(key: pthread_key_t, value: *const std::ffi::c_void) -> i32;
}

/// Runs when a registered thread exits: adds what the thread still holds
/// back.
unsafe extern "C" fn at_exit(_: *mut std::ffi::c_void) {
    STATE.set(State::Exited);
    add_live(BALANCE.replace(0));
}

/// Asks the C library to call [`at_exit`] when this thread exits. A POSIX
/// thread-specific key is used rather than a Rust thread-local destructor,
/// because registering one of those can allocate, and this runs inside the
/// allocator.
fn register_exit() {
    static KEY: OnceLock<Option<pthread_key_t>> = OnceLock::new();
    STATE.set(State::Registered);
    let key = KEY.get_or_init(|| {
        let mut key = 0;
        // SAFETY: `key` is a live `pthread_key_t`, and `at_exit` has the
        // destructor signature the C library expects.
        (unsafe { pthread_key_create(&mut key, Some(at_exit)) } == 0).then_some(key)
    });
    let registered = key.is_some_and(|key| {
        // SAFETY: `key` was created above. The value only has to be
        // non-null for the destructor to run; it is never read.
        unsafe {
            pthread_setspecific(key, std::ptr::NonNull::<u8>::dangling().as_ptr().cast()) == 0
        }
    });
    if !registered {
        // Without an exit hook the balance would be lost when the thread
        // ends; count this thread's changes one by one instead.
        STATE.set(State::Exited);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// The most heap the process has held at once, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_buffer_freed_on_another_thread_is_counted() {
        // Other tests' threads may hold up to BATCH bytes each that are
        // not counted yet, so the buffer is far larger than that.
        let big = 256 * BATCH;
        let buf = std::thread::spawn(move || vec![1u8; big as usize])
            .join()
            .unwrap();
        assert!(LIVE.load(Relaxed) >= big / 2);
        drop(buf);
        assert!(PEAK.load(Relaxed) >= big / 2);
    }

    #[test]
    fn small_changes_wait_on_the_thread_until_it_exits() {
        std::thread::spawn(|| {
            let before = BALANCE.get();
            let small = vec![0u8; 1_000];
            assert_eq!(BALANCE.get() - before, 1_000);
            assert!(STATE.get() == State::Registered);
            std::mem::forget(small);
            // SAFETY: the hook ignores its argument.
            unsafe { at_exit(std::ptr::null_mut()) };
            assert_eq!(BALANCE.get(), 0);
            assert!(STATE.get() == State::Exited);
        })
        .join()
        .unwrap();
    }
}
