(** Native backend: compile the generated OCaml program with [ocamlopt]
    and execute it — the full Delite-style flow the paper used
    (generate → gcc → run), realized with the OCaml toolchain.

    One executor, the in-process Dynlink JIT ({!Jit}), fronted by the
    content-addressed {!Kernel_cache} (DESIGN.md §17).  A cache hit —
    memory or disk — performs {e zero} codegen and zero compilation;
    [kernel_cache_hit]/[kernel_cache_miss] metrics record which
    happened, and each real compile runs under an [Obs.Span]
    ("kernel-compile"). *)

module V = Dmll_interp.Value
module Metrics = Dmll_obs.Metrics
module Span = Dmll_obs.Span

type result = { value : V.t; seconds : float }

exception Native_error of string

val backend_id : string
val caps_fp : string

val cache_key : Dmll_ir.Exp.exp -> string
(** The kernel-cache key for a program under this backend's id and
    capability fingerprint. *)

module Jit : sig
  val available : bool Lazy.t
  (** A native-code host ([Dynlink.is_native]) with the
      [ocamlfind ocamlopt] toolchain.  The plugin's interface
      dependencies are embedded in this library, so any such executable
      qualifies, installed or in the build tree. *)

  (** What answered a {!kernel_for} request — lets callers (and tests)
      assert precisely that warm paths did no compilation. *)
  type source = Linked | Cache of Kernel_cache.tier | Compiled

  val kernel_for :
    ?cache:Kernel_cache.t ->
    ?metrics:Metrics.t ->
    ?tracer:Span.t ->
    Dmll_ir.Exp.exp ->
    Kernel_link.kernel * source
  (** Resolve the kernel: already-linked registry entry first, then the
      kernel cache (dynlinking a hit; an entry that fails to link is
      evicted and recompiled), compiling on a miss.  Every outcome short
      of [Compiled] did zero codegen and zero compilation. *)
end

val run :
  ?cache:Kernel_cache.t ->
  ?metrics:Metrics.t ->
  ?tracer:Span.t ->
  inputs:(string * V.t) list ->
  Dmll_ir.Exp.exp ->
  result
(** Resolve the kernel ({!Jit.kernel_for}), marshal the inputs the
    program reads, call the kernel once and unmarshal its result.
    [seconds] is the wall time of that whole call: a cold run includes
    [ocamlopt] and Dynlink.  Raises {!Native_error} when the JIT is
    unavailable or a compile fails. *)
