(** Kernel handoff registry for dynlinked kernels (DESIGN.md §17).

    A JIT-compiled kernel plugin ({!Codegen_ocaml.emit_kernel} compiled
    with [ocamlopt -shared]) cannot return a value from
    [Dynlink.loadfile_private] — loading only runs the module
    initializers.  This module is the narrow rendezvous point both sides
    agree on: the plugin's initializer calls {!register} with its cache
    key and kernel closure, and the host {!find}s it right after the
    load returns.

    The kernel interface is deliberately untyped at the seam —
    [string -> string], marshalled inputs to marshalled result — so a
    plugin needs {e only} this module's interface (and the library's
    alias module) to compile.  Both compiled interfaces are embedded in
    the library ({!Kernel_cmis}), so [Native] compiles plugins from any
    executable, and the compiled artifact's Dynlink import surface (and
    therefore its cache stability across host rebuilds) stays as small
    as possible. *)

type kernel = string -> string
(** Marshalled [(string * value) list] inputs to a marshalled [value]
    result; the [value] type is structurally [Dmll_interp.Value.t]. *)

let table : (string, kernel) Hashtbl.t = Hashtbl.create 16
let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

(** Called by the plugin's module initializer during [Dynlink.loadfile].
    Re-registration under the same key (the same artifact loaded twice)
    replaces the closure — both instances compute the same function. *)
let register ~(key : string) (k : kernel) : unit =
  locked (fun () -> Hashtbl.replace table key k)

(** The kernel registered under [key], if any.  Registrations persist
    for the process lifetime: dynlinked code cannot be unloaded, so
    dropping the closure would save nothing. *)
let find (key : string) : kernel option =
  locked (fun () -> Hashtbl.find_opt table key)

(** Number of kernels linked into this process (observability). *)
let count () : int = locked (fun () -> Hashtbl.length table)
