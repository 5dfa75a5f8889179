//! A handler-based discrete-event simulation engine.
//!
//! [`Simulation`] owns a world state and a stable event queue; the caller
//! supplies one handler closure that consumes each event, mutates the
//! world, and schedules follow-up events through the [`Scheduler`] proxy
//! (buffered and enqueued after the handler returns, so the borrow of the
//! world and the queue never alias).
//!
//! The cluster-level simulations in `dvdc` drive their own specialised
//! loops; this generic engine exists for ad-hoc models (and is validated
//! here against M/M/1 queueing theory, the standard DES litmus test).

use crate::event::EventQueue;
use crate::time::{Duration, SimTime};

/// A buffered cancellation predicate (see [`Scheduler::cancel_where`]).
type CancelPredicate<'a, E> = Box<dyn FnMut(&E) -> bool + 'a>;

/// Event-scheduling proxy handed to handlers. New events are buffered and
/// committed to the queue when the handler returns.
pub struct Scheduler<'a, E> {
    now: SimTime,
    pending: Vec<(SimTime, E)>,
    cancellations: Vec<CancelPredicate<'a, E>>,
}

impl<E> std::fmt::Debug for Scheduler<'_, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .field("cancellations", &self.cancellations.len())
            .finish()
    }
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    /// Panics if `at` precedes the current time.
    pub fn at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.pending.push((at, event));
    }

    /// Schedules an event `delay` from now.
    pub fn after(&mut self, delay: Duration, event: E) {
        self.at(self.now + delay, event);
    }

    /// Cancels every pending event matching `doomed` — both events
    /// already in the queue and events this handler scheduled earlier in
    /// the same invocation. Applied when the handler returns; surviving
    /// events keep their relative order.
    ///
    /// All predicates a handler registers are applied in **one** pass
    /// over the pending set when it returns: a handler registering P
    /// predicates over N pending events costs O(N·P) predicate calls and
    /// a single heap rebuild, not P full rebuilds — the difference is
    /// visible at thousand-node scale where N is large and fault
    /// handlers retract several event classes at once.
    ///
    /// This is how an interrupting event (a node fault) retracts the
    /// follow-up work of whatever it interrupted (the phase steps of an
    /// in-flight checkpoint round).
    ///
    /// The predicate may borrow from the handler's environment — the
    /// same `FnMut(&E) -> bool` bound as [`Simulation::cancel_where`],
    /// with no `'static` requirement.
    pub fn cancel_where<F: FnMut(&E) -> bool + 'a>(&mut self, doomed: F) {
        self.cancellations.push(Box::new(doomed));
    }
}

/// A discrete-event simulation over world `W` and event type `E`.
#[derive(Debug)]
pub struct Simulation<W, E> {
    /// The mutable world state handlers operate on.
    pub world: W,
    queue: EventQueue<E>,
}

impl<W, E> Simulation<W, E> {
    /// Creates a simulation at t = 0.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            queue: EventQueue::new(),
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Pending event count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Seeds an initial event.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.queue.schedule(at, event);
    }

    /// Drops every pending event matching `doomed` without disturbing the
    /// relative order of survivors. The out-of-handler counterpart of
    /// [`Scheduler::cancel_where`], for callers that interleave their own
    /// logic between `run_until` windows.
    pub fn cancel_where<F: FnMut(&E) -> bool>(&mut self, mut doomed: F) {
        self.queue.retain(|e| !doomed(e));
    }

    /// Runs events until the queue drains or an event at or beyond
    /// `horizon` would fire (events exactly at the horizon are not
    /// delivered). Returns the number of events processed.
    ///
    /// The handler closure is the engine's entire hook surface: it
    /// consumes each event, mutates the world, and uses the
    /// [`Scheduler`] proxy to enqueue follow-ups or retract pending
    /// work — including with predicates that borrow its environment.
    ///
    /// # Example
    /// ```
    /// use dvdc_simcore::engine::Simulation;
    /// use dvdc_simcore::time::SimTime;
    ///
    /// #[derive(Debug, PartialEq)]
    /// enum Ev {
    ///     Tick(u32),
    ///     Fault,
    /// }
    ///
    /// let mut sim = Simulation::new(Vec::new());
    /// for i in 0u32..4 {
    ///     sim.schedule(SimTime::from_secs(1.0 + f64::from(i)), Ev::Tick(i));
    /// }
    /// sim.schedule(SimTime::from_secs(2.5), Ev::Fault);
    ///
    /// let cancel_from = 2; // borrowed by the cancellation predicate
    /// sim.run_until(SimTime::from_secs(10.0), |log: &mut Vec<u32>, sched, ev| {
    ///     match ev {
    ///         Ev::Tick(n) => log.push(n),
    ///         // The fault retracts every tick still pending.
    ///         Ev::Fault => sched.cancel_where(|e| match e {
    ///             Ev::Tick(n) => *n >= cancel_from,
    ///             Ev::Fault => false,
    ///         }),
    ///     }
    /// });
    /// assert_eq!(sim.world, vec![0, 1]);
    /// ```
    pub fn run_until<'a, F>(&mut self, horizon: SimTime, mut handler: F) -> u64
    where
        E: 'a,
        F: FnMut(&mut W, &mut Scheduler<'a, E>, E),
    {
        let mut processed = 0;
        // One Scheduler reused across the whole run: its `pending` and
        // `cancellations` buffers are drained (not dropped) every
        // iteration, so a long simulation costs two allocations total
        // instead of two per event.
        let mut scheduler = Scheduler {
            now: SimTime::ZERO,
            pending: Vec::new(),
            cancellations: Vec::new(),
        };
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked event pops");
            scheduler.now = now;
            handler(&mut self.world, &mut scheduler, event);
            if !scheduler.cancellations.is_empty() {
                // Apply every buffered predicate in a single retain pass:
                // one heap rebuild regardless of how many predicates the
                // handler registered, instead of one rebuild each.
                let mut cancels = std::mem::take(&mut scheduler.cancellations);
                self.queue
                    .retain(|e| !cancels.iter_mut().any(|doomed| doomed(e)));
                scheduler
                    .pending
                    .retain(|(_, e)| !cancels.iter_mut().any(|doomed| doomed(e)));
                cancels.clear();
                scheduler.cancellations = cancels;
            }
            self.queue.schedule_batch(scheduler.pending.drain(..));
            processed += 1;
        }
        processed
    }

    /// Runs until the queue is empty. Returns events processed.
    ///
    /// Beware: a self-perpetuating model never drains; use
    /// [`Simulation::run_until`] for those.
    pub fn run_to_completion<'a, F>(&mut self, handler: F) -> u64
    where
        E: 'a,
        F: FnMut(&mut W, &mut Scheduler<'a, E>, E),
    {
        self.run_until(SimTime::from_secs(f64::MAX / 2.0), handler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngHub;
    use rand::Rng;

    #[test]
    fn ping_pong_terminates_and_counts() {
        #[derive(Debug)]
        enum Ev {
            Ping(u32),
            Pong(u32),
        }
        let mut sim = Simulation::new(0u32);
        sim.schedule(SimTime::from_secs(1.0), Ev::Ping(5));
        let processed = sim.run_to_completion(|hits, sched, ev| match ev {
            Ev::Ping(n) => {
                *hits += 1;
                if n > 0 {
                    sched.after(Duration::from_secs(1.0), Ev::Pong(n - 1));
                }
            }
            Ev::Pong(n) => {
                *hits += 1;
                sched.after(Duration::from_secs(1.0), Ev::Ping(n));
            }
        });
        // Ping(5) Pong(4) Ping(4) ... Pong(0) Ping(0): 11 events.
        assert_eq!(processed, 11);
        assert_eq!(sim.world, 11);
        assert_eq!(sim.now(), SimTime::from_secs(11.0));
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut sim = Simulation::new(Vec::new());
        for t in 1..=5 {
            sim.schedule(SimTime::from_secs(t as f64), t);
        }
        let n = sim.run_until(SimTime::from_secs(3.0), |log, _, e| log.push(e));
        assert_eq!(n, 2);
        assert_eq!(sim.world, vec![1, 2]);
        assert_eq!(sim.pending(), 3);
    }

    #[test]
    fn mm1_queue_matches_theory() {
        // M/M/1 with λ = 0.8, μ = 1.0 → ρ = 0.8; mean number in system
        // L = ρ/(1−ρ) = 4.
        #[derive(Debug)]
        enum Ev {
            Arrival,
            Departure,
        }
        struct World {
            in_system: u64,
            rng: crate::rng::StreamRng,
            /// ∫ in_system dt up to `last`.
            area: f64,
            last: SimTime,
        }
        let hub = RngHub::new(0x3131);
        let mut sim = Simulation::new(World {
            in_system: 0,
            rng: hub.stream("mm1"),
            area: 0.0,
            last: SimTime::ZERO,
        });
        let (lambda, mu) = (0.8, 1.0);
        let exp = |rng: &mut crate::rng::StreamRng, rate: f64| {
            Duration::from_secs(-(1.0 - rng.random::<f64>()).ln() / rate)
        };
        sim.schedule(SimTime::from_secs(0.001), Ev::Arrival);
        let horizon = SimTime::from_secs(400_000.0);
        sim.run_until(horizon, |w, sched, ev| {
            w.area += w.in_system as f64 * sched.now().since(w.last).as_secs();
            w.last = sched.now();
            match ev {
                Ev::Arrival => {
                    w.in_system += 1;
                    if w.in_system == 1 {
                        let svc = exp(&mut w.rng, mu);
                        sched.after(svc, Ev::Departure);
                    }
                    let next = exp(&mut w.rng, lambda);
                    sched.after(next, Ev::Arrival);
                }
                Ev::Departure => {
                    w.in_system -= 1;
                    if w.in_system > 0 {
                        let svc = exp(&mut w.rng, mu);
                        sched.after(svc, Ev::Departure);
                    }
                }
            }
        });
        let w = &sim.world;
        let tail = w.in_system as f64 * horizon.since(w.last).as_secs();
        let mean_l = (w.area + tail) / horizon.as_secs();
        assert!(
            (mean_l - 4.0).abs() < 0.4,
            "M/M/1 mean in system {mean_l} vs theory 4.0"
        );
    }

    #[test]
    fn handler_cancellation_retracts_queued_and_pending_events() {
        #[derive(Debug, PartialEq, Clone, Copy)]
        enum Ev {
            Step(u32),
            Fault,
        }
        let mut sim = Simulation::new(Vec::new());
        for i in 0..4 {
            sim.schedule(SimTime::from_secs(1.0 + i as f64), Ev::Step(i));
        }
        sim.schedule(SimTime::from_secs(2.5), Ev::Fault);
        sim.run_to_completion(|log: &mut Vec<Ev>, sched, ev| {
            log.push(ev);
            if let Ev::Fault = ev {
                // Even an event the fault handler itself just scheduled
                // must not survive the cancellation.
                sched.after(Duration::from_secs(1.0), Ev::Step(99));
                sched.cancel_where(|e| matches!(e, Ev::Step(_)));
            }
        });
        assert_eq!(
            sim.world,
            vec![Ev::Step(0), Ev::Step(1), Ev::Fault],
            "steps after the fault must have been cancelled"
        );
    }

    #[test]
    fn batched_predicates_cancel_union_and_preserve_survivor_order() {
        // Several predicates registered by ONE handler invocation must
        // behave exactly like sequential retains: the union of matches is
        // removed, and every survivor keeps its relative order — including
        // simultaneous events, whose (time, seq) tiebreak must survive the
        // single-pass rebuild.
        #[derive(Debug, PartialEq, Clone, Copy)]
        enum Ev {
            Fault,
            Step(u32),
        }
        let mut sim = Simulation::new(Vec::new());
        sim.schedule(SimTime::from_secs(1.0), Ev::Fault);
        let t = SimTime::from_secs(2.0);
        for i in 0..8 {
            sim.schedule(t, Ev::Step(i)); // all simultaneous: seq order decides
        }
        sim.run_to_completion(|log: &mut Vec<Ev>, sched, ev| {
            log.push(ev);
            if let Ev::Fault = ev {
                // Predicate 1 kills multiples of 3, predicate 2 kills 5
                // and 7; also cancel an event buffered by this same
                // handler before the predicates were registered.
                sched.after(Duration::from_secs(0.5), Ev::Step(99));
                sched.cancel_where(|e| matches!(e, Ev::Step(n) if n % 3 == 0));
                sched.cancel_where(|e| matches!(e, Ev::Step(5) | Ev::Step(7)));
            }
        });
        assert_eq!(
            sim.world,
            vec![Ev::Fault, Ev::Step(1), Ev::Step(2), Ev::Step(4)],
            "union of predicates removed; survivors in original seq order"
        );
    }

    #[test]
    fn handler_cancellation_accepts_borrowing_predicates() {
        // The unified bound: a predicate that borrows from the handler's
        // environment (non-'static) is accepted, matching
        // `Simulation::cancel_where`.
        let mut sim = Simulation::new(Vec::new());
        for i in 0u32..5 {
            sim.schedule(SimTime::from_secs(1.0 + f64::from(i)), i);
        }
        let threshold = 2u32;
        let threshold_ref = &threshold;
        sim.run_to_completion(|log: &mut Vec<u32>, sched, ev| {
            log.push(ev);
            if ev == 0 {
                sched.cancel_where(|e| *e >= *threshold_ref);
            }
        });
        assert_eq!(sim.world, vec![0, 1]);
    }

    #[test]
    fn simulation_cancel_where_between_windows() {
        let mut sim = Simulation::new(());
        for i in 0..5 {
            sim.schedule(SimTime::from_secs(i as f64 + 1.0), i);
        }
        sim.cancel_where(|&e| e >= 3);
        assert_eq!(sim.pending(), 3);
        let n = sim.run_to_completion(|_, _, _| {});
        assert_eq!(n, 3);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduler_rejects_past() {
        let mut sim = Simulation::new(());
        sim.schedule(SimTime::from_secs(5.0), ());
        sim.run_to_completion(|_, sched, _| {
            sched.at(SimTime::from_secs(1.0), ());
        });
    }
}
