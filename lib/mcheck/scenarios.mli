(** Model-check harnesses, run by [hermes_sim mcheck]: a replica of
    the Trace sink publication protocol, clean and with a seeded
    ordering bug.

    Clean scenarios must explore without a counterexample and without
    a data race.  [bug] scenarios re-introduce an ordering bug behind a
    seed flag and pass only when the checker finds a counterexample —
    the regression gate for the checker itself. *)

type t = {
  name : string;
  descr : string;
  bug : bool;  (** true: the checker must find a counterexample *)
  config : Model.config;  (** per-scenario exploration budget *)
  run : Model.config -> Model.outcome;
}

val all : t list
val find : string -> t option

val evaluate : t -> Model.outcome -> bool * string
(** [(pass, reason)] under the rules above. *)
