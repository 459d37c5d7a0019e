(** Native backend: compile the generated OCaml program with [ocamlopt]
    and execute it — the full Delite-style flow the paper used
    (generate → gcc → run), realized with the OCaml toolchain.

    One executor, fronted by the content-addressed {!Kernel_cache}
    (DESIGN.md §17): the program is emitted as a Dynlink plugin
    ([Codegen_ocaml.emit_kernel]), compiled with [ocamlopt -shared]
    against the two interface files embedded in this library
    ({!Kernel_cmis}), dynlinked into this process, and handed back
    through the {!Kernel_link} registry as a [string -> string] closure
    over marshalled inputs.  {!run} calls it once; its [seconds] is the
    wall time of the whole call.

    A cache hit — memory or disk — performs {e zero} codegen and zero
    compilation; [kernel_cache_hit]/[kernel_cache_miss] metrics record
    which happened, and each real compile runs under an
    [Obs.Span] ("kernel-compile"). *)

module V = Dmll_interp.Value
module Metrics = Dmll_obs.Metrics
module Span = Dmll_obs.Span

type result = { value : V.t; seconds : float }

exception Native_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Native_error s)) fmt

let backend_id = "native"

(* Capability fingerprint under which this backend keys its kernels.
   Defined here (not via Backend.capabilities) to keep the compile path
   independent of how the seam module is assembled in lib/core. *)
let caps_fp = "wall_clock,emits_source,cacheable_kernels"

let cache_key (e : Dmll_ir.Exp.exp) : string =
  Kernel_cache.key ~backend_id ~caps_fp e

let read_capped path cap =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        really_input_string ic (Stdlib.min n cap))
  with _ -> "(no log)"

let command_in ~dir cmd =
  let log = Filename.concat dir "build.log" in
  let full =
    Printf.sprintf "cd %s && %s > %s 2>&1" (Filename.quote dir) cmd
      (Filename.quote log)
  in
  if Sys.command full = 0 then Ok ()
  else Error (Printf.sprintf "%s failed:\n%s" cmd (read_capped log 4000))

let record_hit ?metrics () =
  match metrics with
  | Some m -> Metrics.incr m "kernel_cache_hit"
  | None -> ()

let record_miss ?metrics () =
  match metrics with
  | Some m -> Metrics.incr m "kernel_cache_miss"
  | None -> ()

module Jit = struct
  (** JIT availability: a native-code host (Dynlink of .cmxs) and the
      [ocamlfind ocamlopt] toolchain. *)
  let available : bool Lazy.t =
    lazy
      (Dynlink.is_native
      && Sys.command "ocamlfind ocamlopt -version > /dev/null 2>&1" = 0)

  (** What answered a {!kernel_for} request — lets callers (and tests)
      assert precisely that warm paths did no compilation. *)
  type source = Linked | Cache of Kernel_cache.tier | Compiled

  let load_plugin (entry : Kernel_cache.entry) : (unit, string) Stdlib.result =
    try
      Dynlink.loadfile_private entry.Kernel_cache.artifact;
      Ok ()
    with
    | Dynlink.Error e -> Error (Dynlink.error_message e)
    | exn -> Error (Printexc.to_string exn)

  (* The plugin refers to Dmll_backend.Kernel_link, so its build
     directory gets the embedded interfaces of both units. *)
  let compile_plugin ?tracer cache ~key (e : Dmll_ir.Exp.exp) :
      (Kernel_cache.entry, string) Stdlib.result =
    Span.with_span ?tracer ~cat:"backend" "kernel-compile" (fun () ->
        let modname = Kernel_cache.module_name_of_key key in
        let source_name = String.uncapitalize_ascii modname ^ ".ml" in
        let artifact = String.uncapitalize_ascii modname ^ ".cmxs" in
        let source = Codegen_ocaml.emit_kernel ~key e in
        Kernel_cache.store cache ~key ~source_name ~source ~artifact
          ~build:(fun ~dir ->
            List.iter
              (fun (name, bytes) ->
                Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
                    Out_channel.output_string oc bytes))
              Kernel_cmis.files;
            command_in ~dir
              (Printf.sprintf "ocamlfind ocamlopt -shared -I . -w -a %s -o %s"
                 (Filename.quote source_name) (Filename.quote artifact)))
          ())

  (** Resolve the kernel for [e]: already-linked registry entry first,
      then the kernel cache (dynlinking a hit), compiling on a miss.
      Every outcome short of [Compiled] did zero codegen and zero
      compilation. *)
  let kernel_for ?cache ?metrics ?tracer (e : Dmll_ir.Exp.exp) :
      Kernel_link.kernel * source =
    if not (Lazy.force available) then fail "native JIT not available";
    let cache =
      match cache with Some c -> c | None -> Lazy.force Kernel_cache.shared
    in
    let key = cache_key e in
    let linked_or what =
      match Kernel_link.find key with
      | Some k -> (k, what)
      | None -> fail "plugin %s loaded but registered no kernel" key
    in
    let compile_and_link () =
      record_miss ?metrics ();
      match compile_plugin ?tracer cache ~key e with
      | Error m -> fail "%s" m
      | Ok entry -> (
          match load_plugin entry with
          | Error m -> fail "dynlink failed: %s" m
          | Ok () -> linked_or Compiled)
    in
    match Kernel_link.find key with
    | Some k ->
        record_hit ?metrics ();
        (k, Linked)
    | None -> (
        match Kernel_cache.find cache key with
        | Some (entry, tier) -> (
            match load_plugin entry with
            | Ok () ->
                record_hit ?metrics ();
                linked_or (Cache tier)
            | Error _ ->
                (* stale artifact (e.g. interface CRC drift): evict and
                   recompile *)
                Kernel_cache.remove cache key;
                compile_and_link ())
        | None -> compile_and_link ())
end

(** Run [e] natively: resolve its kernel, marshal the inputs it reads,
    call the kernel once and unmarshal the result.  [seconds] is the
    wall time of the whole call, so a cold run includes [ocamlopt]. *)
let run ?cache ?metrics ?tracer ~(inputs : (string * V.t) list)
    (e : Dmll_ir.Exp.exp) : result =
  let value, seconds =
    Dmll_util.Timing.time (fun () ->
        let kernel, _src = Jit.kernel_for ?cache ?metrics ?tracer e in
        let read = Codegen_ocaml.inputs_of e in
        let inputs = List.filter (fun (n, _) -> List.mem_assoc n read) inputs in
        (Marshal.from_string (kernel (Marshal.to_string inputs [])) 0 : V.t))
  in
  { value; seconds }
