//! A reference load timed beside every segment, to tell a slower machine
//! from slower code.
//!
//! The machines this runs on are shared. For seconds to minutes at a time
//! the same binary runs a quarter slower: in one set of ten identical runs
//! `read_hot` checked 4.3 to 6.4 million requests in its 15 seconds. So at
//! every segment boundary the driver also times a fixed piece of work that
//! contains none of the product's code — a byte bounced off an echo thread
//! through a socket pair, on the same CPU — and reports each end-to-end
//! timing scaled by how that reference ran against the time it is defined
//! to take ([`REFERENCE_RTT_NS`]).
//!
//! What the scaled numbers are, then, is time in reference units, and
//! `BENCHMARK.json` names their units `ref_us` and `1/ref_s`, not `us` and
//! `1/s`. Two ways of keeping wall-clock units were measured on the same
//! 12 runs per workload (60 segments each) and do not repeat well enough
//! for a bound of a fifth. Spread (first to third quartile over the
//! median) of the per-run medians of throughput, latency and CPU per
//! operation, over `read_hot`, `read_churn`, `host_tick`, `fleet_fanin`:
//!
//! | reported | spread |
//! |---|---|
//! | unscaled | 7–16 % |
//! | scaled against the fastest reference measurement of the same run | 3–15 % |
//! | scaled against the fixed definition | 2–5 % |
//!
//! The slow spells outlast a run, so a run's own best reference is no
//! steadier than the run. The unscaled medians are printed beside every
//! result and kept in the `--json` report for whoever wants wall-clock
//! numbers from their own machine.
//!
//! Arithmetic loops, pointer chasing through 16 MiB and tree walks were
//! tried as references and tracked none of the four workloads; the echo
//! tracked all of them, the socket-free `host_tick` included. What slows
//! down is the cost of entering the kernel and of what the kernel asks of
//! the hypervisor, and every workload pays that through its allocations,
//! page faults and context switches.
//!
//! A change to the product cannot move the reference, so a regression
//! shows in the scaled number as it would in the raw one.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::Instant;

/// Bursts per reference measurement. The measurement is the median
/// burst, so a burst the kernel preempted does not move it.
const BURSTS: usize = 5;
/// Echo round trips per burst (about 0.4 ms).
const ROUND_TRIPS: usize = 100;
/// What one reference round trip is defined to take, nanoseconds. Scaled
/// timings are in reference units (`ref_us`, `ref_s`): the time the work
/// took, in reference round trips, times this. The value is what the
/// machine the baseline was measured on takes in its usual state, so that
/// there a reference microsecond reads as a microsecond; elsewhere it is
/// only the unit's definition, and the unscaled medians printed beside
/// every result are the wall-clock ones.
pub const REFERENCE_RTT_NS: f64 = 3_750.0;

/// The reference load: an echo thread and the driver's end of its socket.
#[derive(Debug)]
pub struct Reference {
    near: UnixStream,
    echo: Option<JoinHandle<()>>,
}

impl Reference {
    /// Start the echo thread. Call after pinning, so it shares the CPU.
    pub fn start() -> std::io::Result<Reference> {
        let (near, mut far) = UnixStream::pair()?;
        let echo = std::thread::Builder::new()
            .name("arv-benchmark-echo".into())
            .spawn(move || {
                let mut byte = [0u8; 1];
                while matches!(far.read(&mut byte), Ok(1)) {
                    if far.write_all(&byte).is_err() {
                        break;
                    }
                }
            })?;
        Ok(Reference {
            near,
            echo: Some(echo),
        })
    }

    /// Time the reference once: how much slower than its defined speed the
    /// machine runs right now (1.0 at that speed, 1.1 a tenth slower).
    ///
    /// # Panics
    /// If the echo thread stops answering: without the reference no timing
    /// of the run can be reported, so the run fails.
    pub fn slowdown(&mut self) -> f64 {
        let mut bursts = [0.0; BURSTS];
        let mut byte = [0u8; 1];
        for burst in &mut bursts {
            let t0 = Instant::now();
            for _ in 0..ROUND_TRIPS {
                self.near
                    .write_all(&byte)
                    .and_then(|()| self.near.read_exact(&mut byte))
                    .expect("the reference load's echo thread answers");
            }
            *burst = t0.elapsed().as_nanos() as f64;
        }
        crate::stats::median(&mut bursts) / (ROUND_TRIPS as f64 * REFERENCE_RTT_NS)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        // Closing our end ends the echo thread's read loop.
        let _ = self.near.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_measures_and_stops_its_thread() {
        let mut r = Reference::start().unwrap();
        let s = r.slowdown();
        assert!(s > 0.0 && s.is_finite());
        drop(r);
    }
}
