(** Obstruction-free consensus from read/write registers.

    The positive half of Theorem 5.2: (1,1)-freedom (obstruction-
    freedom) does not exclude agreement and validity for
    register-based consensus — witnessed by this implementation, a
    commit–adopt cascade in the style of [Herlihy–Luchangco–Moir 2003]
    and [Guerraoui–Ruppert 2007] (the paper's citations [20, 17]).

    Structure: an unbounded sequence of commit–adopt rounds, each built
    from two arrays of single-writer registers, plus a decision
    register.  In round [r] a process writes its preference, collects
    the round's writes, and either {e commits} (it saw only its own
    value, twice) or {e adopts} a possibly-different preference and
    moves to round [r + 1].  A process running solo commits within two
    rounds; two lockstep processes with distinct inputs adopt their own
    values forever — exactly the behaviour the paper's Section 5.2
    impossibility discussion requires (see {!Consensus_adversary}).

    Only {!Slx_base_objects.Register} is used, so the implementation
    falls inside the “implementations from registers” class of
    Corollaries 4.5 and 4.10 and Theorem 5.2. *)

val factory :
  unit ->
  (Consensus_type.invocation, Consensus_type.response) Slx_sim.Runner.factory
(** A fresh implementation instance.  The rounds are two
    {!Slx_base_objects.Register.pool}s: a round's registers materialise
    when a process first reaches it, with no step and no bound on the
    number of rounds, and rounds nobody wrote leave the configuration
    digest unchanged. *)
