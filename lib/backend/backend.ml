(** The backend seam (DESIGN.md §17): every execution target — the
    in-process closure compiler, the Dynlink/ocamlopt native JIT, the
    simulated NUMA/GPU/cluster machines, the real process and TCP
    executors — implements the same first-class module interface
    {!S} ([id] / [describe] / [capabilities] / [plan] / [execute]) and
    registers itself in {!Registry}, so the driver ([Dmll.compile_with]
    / [Dmll.execute]) dispatches uniformly instead of pattern-matching
    targets.

    The backend library sits {e below} the runtime library in the
    dependency order, while most backends wrap runtime executors — so a
    backend's run-time configuration travels through the seam as an
    {e extensible-variant} {!payload}: each implementation declares its
    own constructor (in [lib/core/backends.ml], which can see both
    sides) and [execute] matches only its own. *)

module V = Dmll_interp.Value
module Metrics = Dmll_obs.Metrics
module Span = Dmll_obs.Span
module M = Dmll_machine.Machine

(* ------------------------------------------------------------------ *)
(* Capabilities                                                        *)
(* ------------------------------------------------------------------ *)

(** Explicit capability flags the driver (and [dmllc --explain backends])
    consume — a minimal, closed vocabulary in the spirit of the hxhx
    [BackendCapabilities] seam: what a backend {e can do}, never how it
    does it. *)
type capabilities = {
  wall_clock : bool;
      (** reports measured wall time (vs a modeled simulator clock) *)
  parallel : bool;  (** executes chunks concurrently *)
  distributed : bool;  (** partitions data across nodes / processes *)
  fault_injection : bool;  (** honors a [Fault.t] injector *)
  checkpointing : bool;  (** can snapshot and restore mid-run *)
  mem_budget : bool;  (** honors per-node memory budgets *)
  emits_source : bool;  (** generates target source text *)
  cacheable_kernels : bool;
      (** compiles content-addressable kernels worth caching *)
}

let capability_names (c : capabilities) : (string * bool) list =
  [ ("wall_clock", c.wall_clock);
    ("parallel", c.parallel);
    ("distributed", c.distributed);
    ("fault_injection", c.fault_injection);
    ("checkpointing", c.checkpointing);
    ("mem_budget", c.mem_budget);
    ("emits_source", c.emits_source);
    ("cacheable_kernels", c.cacheable_kernels);
  ]

(** Stable fingerprint of a capability record — part of the kernel-cache
    key, so a backend whose declared capabilities change can never serve
    kernels compiled under the old contract. *)
let capability_fingerprint (c : capabilities) : string =
  capability_names c
  |> List.map (fun (n, b) -> if b then n else "")
  |> String.concat ","

let capabilities_to_json (c : capabilities) : string =
  capability_names c
  |> List.map (fun (n, b) -> Printf.sprintf "\"%s\": %b" n b)
  |> String.concat ", "
  |> Printf.sprintf "{%s}"

(* ------------------------------------------------------------------ *)
(* Payloads and results                                                *)
(* ------------------------------------------------------------------ *)

(** Target-specific run configuration, declared per backend
    implementation.  [lib/core/backends.ml] extends this with one
    constructor per registered backend; {!S.execute} receives the
    payload its own resolver built. *)
type payload = ..

exception Wrong_payload of string
(** Raised by {!S.plan}/{!S.execute} when handed a foreign payload — a
    driver bug, never a user error. *)

let wrong_payload id = raise (Wrong_payload id)

(** Compile-time shape of a target, consumed by the driver pipeline in
    place of its historical per-target pattern matches: which cost
    objective tie-breaks horizontal fusion, which machine model the
    partitioning analysis costs against, whether the liveness-driven
    early-free pass runs, and the final target-specific lowering. *)
type plan = {
  fusion_objective : (Dmll_ir.Exp.exp -> float) option;
  machine : M.cluster option;
  early_free : bool;
  lower : Dmll_ir.Exp.exp -> Dmll_ir.Exp.exp * string list;
      (** final lowering; returns the lowered program plus the names of
          the optimizations it applied (e.g. ["row-to-column"]) *)
}

let default_plan : plan =
  { fusion_objective = None;
    machine = None;
    early_free = false;
    lower = (fun e -> (e, []));
  }

(** What one execution produced — the backend-side mirror of
    [Dmll.run_result]. *)
type exec_result = {
  value : V.t;
  seconds : float;
  wall_clock : bool;
  breakdown : (string * float) list;
  traffic : (string * float) list;
  metrics : Metrics.t;
}

(** Everything an execution may observe beyond its payload: the run's
    metrics ledger, the span tracer, and the input bindings. *)
type ctx = {
  metrics : Metrics.t;
  tracer : Span.t option;
  inputs : (string * V.t) list;
}

(* ------------------------------------------------------------------ *)
(* The interface                                                       *)
(* ------------------------------------------------------------------ *)

module type S = sig
  val id : string
  (** Stable identifier ([native], [closure], [sim-cluster], …) used by
      registry lookup and the kernel-cache key. *)

  val describe : string
  (** One-line human description for diagnostics and
      [dmllc --explain backends]. *)

  val capabilities : capabilities

  val plan : payload -> plan
  (** Compile-time hooks for this target (see {!type:plan}). *)

  val execute : payload -> ctx -> Dmll_ir.Exp.exp -> exec_result
  (** Run the fully lowered program. *)
end
