//! The DIP-loop scaffold shared by the exact and approximate SAT attacks:
//! the miter, the incremental solver behind it, and the oracle agreement
//! copies added per query.

use lockbind_locking::LockedNetlist;
use lockbind_netlist::cnf::{encode_netlist, Cnf, HashedEncoder};
use lockbind_obs as obs;
use lockbind_sat::{SolveResult, Solver, SolverStats};

/// A miter of two keyed copies of the locked netlist sharing the inputs
/// `x`, whose outputs are forced to differ while the activation literal is
/// assumed, plus one pair of agreement copies per oracle query.
///
/// The miter copies use the plain [`encode_netlist`]. The agreement copies
/// bind their inputs to constants, so they go through one
/// [`HashedEncoder`]: constants fold away and the key-only logic they
/// repeat is encoded once for all queries.
pub(crate) struct DipLoop<'a> {
    locked: &'a LockedNetlist,
    cnf: Cnf,
    solver: Solver,
    /// Clauses of `cnf` already handed to `solver`.
    pushed: usize,
    x: Vec<i32>,
    k1: Vec<i32>,
    k2: Vec<i32>,
    act: i32,
    copies: HashedEncoder,
    copy_vars: u64,
    copy_clauses: u64,
}

impl<'a> DipLoop<'a> {
    /// Builds the miter of `locked` on top of `solver` (which may carry a
    /// conflict budget or an interrupt token).
    pub(crate) fn new(locked: &'a LockedNetlist, solver: Solver) -> Self {
        let nl = locked.netlist();
        let mut cnf = Cnf::new();
        let x = cnf.new_vars(nl.num_inputs());
        let k1 = cnf.new_vars(nl.num_keys());
        let k2 = cnf.new_vars(nl.num_keys());
        let act = cnf.new_var();
        let copies = HashedEncoder::new(&mut cnf);

        let o1 = encode_netlist(nl, &mut cnf, &x, &k1);
        let o2 = encode_netlist(nl, &mut cnf, &x, &k2);
        let mut miter_clause = vec![-act];
        for (a, b) in o1.iter().zip(&o2) {
            let d = cnf.new_var();
            // d <-> a xor b
            cnf.add_clause([-d, *a, *b]);
            cnf.add_clause([-d, -*a, -*b]);
            cnf.add_clause([d, -*a, *b]);
            cnf.add_clause([d, *a, -*b]);
            miter_clause.push(d);
        }
        cnf.add_clause(miter_clause);

        DipLoop {
            locked,
            cnf,
            solver,
            pushed: 0,
            x,
            k1,
            k2,
            act,
            copies,
            copy_vars: 0,
            copy_clauses: 0,
        }
    }

    fn flush(&mut self) {
        self.solver.reserve_vars(self.cnf.num_vars());
        for cl in &self.cnf.clauses()[self.pushed..] {
            self.solver.add_clause(cl);
        }
        self.pushed = self.cnf.clauses().len();
    }

    /// Searches for a distinguishing input; on `Sat` read it with
    /// [`DipLoop::dip`].
    pub(crate) fn find_dip(&mut self) -> SolveResult {
        self.flush();
        self.solver.solve_with_assumptions(&[self.act])
    }

    /// The distinguishing input of the last successful [`DipLoop::find_dip`].
    pub(crate) fn dip(&self) -> Vec<bool> {
        self.x.iter().map(|&l| self.solver.model_value(l)).collect()
    }

    /// Queries the oracle on `bits` and constrains both key copies to
    /// reproduce its answer.
    pub(crate) fn learn(&mut self, bits: &[bool]) {
        let nl = self.locked.netlist();
        let y = self.locked.oracle().eval(bits, &[]).expect("oracle arity");
        let (vars, clauses) = (self.cnf.num_vars(), self.cnf.clauses().len());
        let in_lits: Vec<i32> = bits.iter().map(|&b| self.copies.constant(b)).collect();
        for keys in [&self.k1, &self.k2] {
            let outs = self.copies.encode(nl, &mut self.cnf, &in_lits, keys);
            for (o, &yv) in outs.iter().zip(&y) {
                self.cnf.add_clause([if yv { *o } else { -*o }]);
            }
        }
        self.copy_vars += u64::from(self.cnf.num_vars() - vars);
        self.copy_clauses += (self.cnf.clauses().len() - clauses) as u64;
    }

    /// Deactivates the miter and searches for a key consistent with every
    /// query so far; on `Sat` read it with [`DipLoop::key`].
    pub(crate) fn find_key(&mut self) -> SolveResult {
        self.flush();
        self.solver.solve_with_assumptions(&[-self.act])
    }

    /// The key of the last successful [`DipLoop::find_key`].
    pub(crate) fn key(&self) -> Vec<bool> {
        self.k1
            .iter()
            .map(|&l| self.solver.model_value(l))
            .collect()
    }

    /// Cumulative statistics of the solver.
    pub(crate) fn stats(&self) -> SolverStats {
        self.solver.stats()
    }

    /// Publishes this loop's work into the global metrics registry. Called
    /// once per attack — each attack owns a fresh solver and encoder, so
    /// the cumulative figures are exactly this attack's work:
    ///
    /// * solver hot-path counters (propagations, watcher visits, blocker
    ///   hits), clause-database maintenance (reduces, GC runs), and the
    ///   learnt-clause glue histogram (one bucket per LBD value, value 8
    ///   standing for glue ≥ 8);
    /// * the agreement copies' encoding: variables and clauses they added
    ///   (`sat.dip_vars`, `sat.dip_clauses`) and the gates the structural
    ///   hash answered from its table (`sat.strash_hits`).
    pub(crate) fn record_metrics(&self) {
        let stats = self.solver.stats();
        obs::counter!("sat.solver.conflicts").add(stats.conflicts);
        obs::counter!("sat.solver.propagations").add(stats.propagations);
        obs::counter!("sat.solver.watcher_visits").add(stats.watcher_visits);
        obs::counter!("sat.solver.blocker_hits").add(stats.blocker_hits);
        obs::counter!("sat.solver.reduces").add(stats.reduces);
        obs::counter!("sat.solver.gc_runs").add(stats.gc_runs);
        let glue_hist = obs::histogram!("sat.glue");
        for (i, &count) in stats.glue_hist.iter().enumerate() {
            if count > 0 {
                glue_hist.record_n(i as u64 + 1, count);
            }
        }
        obs::counter!("sat.dip_vars").add(self.copy_vars);
        obs::counter!("sat.dip_clauses").add(self.copy_clauses);
        obs::counter!("sat.strash_hits").add(self.copies.strash_hits());
    }
}
