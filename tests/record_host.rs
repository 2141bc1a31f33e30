//! The shard worker as the dispatch core's record host (DESIGN.md §13):
//! it follows a state's same-time chain as the engine's queue would, so
//! the merge thread applies what the worker recorded and executes
//! nothing itself.

use sde::prelude::*;
use sde::symbolic::BinOp;
use sde_os::handlers;

/// Runs `scenario` serially and through two shard workers, checks the
/// keys agree, and returns the sharded run's counters.
fn sharded_stats(scenario: &Scenario, alg: Algorithm) -> ParallelStats {
    let serial = Engine::new(scenario.clone(), alg).run();
    let sharded = Engine::new(scenario.clone(), alg).run_sharded(2);
    assert_eq!(sharded.equivalence_key(), serial.equivalence_key(), "{alg}");
    sharded.parallel.expect("a sharded run")
}

/// A handler that arms a zero-delay timer: the timer's dispatch lands in
/// the same batch, and the worker that ran the handler records it too.
#[test]
fn a_zero_delay_timer_is_recorded_by_the_worker_that_armed_it() {
    let topology = Topology::ring(4);
    let cfg = HelloConfig {
        base_delay_ms: 0,
        stagger_ms: 0,
    };
    let programs = sde::os::apps::hello::programs(&topology, &cfg);
    let scenario = Scenario::new(topology, programs).with_duration_ms(2000);
    for alg in Algorithm::ALL {
        let stats = sharded_stats(&scenario, alg);
        assert!(stats.shard_applied >= 8, "{alg}: {stats:?}");
        assert_eq!(stats.shard_fallback, 0, "{alg}: {stats:?}");
    }
}

/// Boots with a symbolic byte in memory and two timers for the same
/// time; the first timer branches on the byte, the second does not.
fn forking_timer_program() -> Program {
    const CELL: u64 = 100;
    let mut pb = ProgramBuilder::new();
    pb.function(handlers::ON_BOOT, 0, |f| {
        let x = f.reg();
        f.make_symbolic(x, "x", Width::W8);
        let addr = f.imm(CELL, Width::W32);
        f.store(addr, x);
        let delay = f.imm(100, Width::W64);
        f.set_timer(delay, 1);
        f.set_timer(delay, 2);
        f.ret(None);
    });
    pb.function(handlers::ON_TIMER, 1, |f| {
        let (fork, done) = (f.label(), f.label());
        let one = f.imm(1, Width::W16);
        let first = f.reg();
        f.bin(BinOp::Eq, first, f.param(0), one);
        f.br(first, fork, done);
        f.place(fork);
        let addr = f.imm(CELL, Width::W32);
        let x = f.reg();
        f.load(x, addr, Width::W8);
        let ten = f.imm(10, Width::W8);
        let small = f.reg();
        f.bin(BinOp::Ult, small, x, ten);
        let (then, els) = (f.label(), f.label());
        f.br(small, then, els);
        f.place(then);
        f.ret(None);
        f.place(els);
        f.ret(None);
        f.place(done);
        f.ret(None);
    });
    pb.function(handlers::ON_RECV, 1, |f| f.ret(None));
    pb.build().expect("well-formed")
}

/// A branch fork inside a worker: the child inherits its parent's
/// pending same-time events in the worker's queue, exactly as the
/// engine's queue duplicates them, so the child's dispatch of the second
/// timer is recorded too.
#[test]
fn a_fork_child_inherits_its_parents_same_time_events_in_the_worker() {
    let topology = Topology::line(2);
    let programs = vec![forking_timer_program(), forking_timer_program()];
    let scenario = Scenario::new(topology, programs).with_duration_ms(1000);
    for alg in Algorithm::ALL {
        let stats = sharded_stats(&scenario, alg);
        assert!(stats.shard_recorded >= 6, "{alg}: {stats:?}");
        assert_eq!(stats.shard_fallback, 0, "{alg}: {stats:?}");
    }
}
