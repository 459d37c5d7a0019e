(** Process-backed cluster executor: {!Net_cluster} with locally forked
    workers and no reconnect grace (DESIGN.md §16).  A lost link retires
    the slot at once — SIGKILL, replan onto survivors, respawn within
    the budget. *)

include Net_cluster

(** 2 local workers, 5 s task deadline, 0.25 s heartbeat, no reconnect
    grace, 8 respawns, no faults, no checkpointing. *)
let default_config =
  { default_config with spawn_local = true; reconnect_grace_s = 0. }
