(** Polymorphic one-shot consensus objects, the building block of the
    universal construction.

    Two variants with the same interface and different base objects —
    exactly the split the paper's consensus corollaries hinge on:

    - {!Cas}: from a single compare-and-swap: wait-free (two steps);
    - {!Registers}: a commit–adopt cascade from read/write registers:
      obstruction-free, and tied forever by a lockstep schedule.

    A value of type ['a t] is the unbounded sequence of one-shot
    consensus objects (slots [0, 1, 2, ...]) of a consensus log, built
    on {!Slx_base_objects} pools: no step and no capacity.

    [propose] is idempotent per slot: every call returns the slot's
    decided value, so processes can re-propose while racing for log
    slots. *)

open Slx_history

module type S = sig
  type 'a t

  val make : n:int -> unit -> 'a t
  (** A fresh sequence of undecided consensus objects for [n]
      processes. *)

  val propose : 'a t -> slot:int -> proc:Proc.t -> 'a -> 'a
  (** Propose a value to slot [slot]; returns its decided value.  May
      take unboundedly many steps for {!Registers} under contention. *)
end

module Cas : S
(** Decide by a single compare-and-swap. *)

(** The commit–adopt cascade of {!Slx_consensus.Register_consensus},
    generalized to arbitrary values.  Obstruction-free only. *)
module Registers : sig
  include S

  val cells : 'a t -> int
  (** Registers materialised so far: only those a proposal touched. *)
end
