(* The per-layer ledger of a traced run.  Samples are taken from the
   benchmark's own files, around calls to each layer's public functions,
   and from what the program already exposes (spans, metrics ledgers,
   executor stats).  Every declared metric is reported on every workload;
   a layer the workload never exercises reads 0. *)

module Span = Dmll_obs.Span

(* Metrics reported once per app, named "<metric>.<app>". *)
let per_app =
  [ "core.execute_s";
    "core.unattributed_s";
    "native.kernel_s";
    "native.kernel_minor_words_per_elem";
    "native.execute_over_kernel";
    "closure.run_s";
    "closure.minor_words_per_elem";
    "proc.run_s";
    "proc.loops_s";
    "proc.outside_loops_s";
    "proc.speedup_vs_closure";
    "domains.run_s";
    "domains.speedup_vs_closure";
  ]

let global =
  [ "opt.optimize_s";
    "opt.rule_firings";
    "opt.ir_nodes";
    "analysis.partition_s";
    "codegen.emit_s";
    "codegen.source_bytes";
    "native.compile_s";
    "native.resolve_s";
    "native.marshal_in_s";
    "native.marshal_in_bytes";
    "kernel_cache.hit";
    "kernel_cache.miss";
    "kernel_cache.disk_bytes";
    "proc.spawned";
    "proc.io_retries";
    "proc.replans";
    "proc.master_chunks";
    "gc.minor_words_per_job";
    "gc.major_collections_per_job";
    "trace.overhead";
  ]

let names : string list =
  global
  @ List.concat_map (fun m -> List.map (fun a -> m ^ "." ^ a) Apps.names) per_app

type t = {
  samples : (string, float list) Hashtbl.t;  (** reported as their median *)
  fixed : (string, float) Hashtbl.t;  (** reported as is *)
  mutable parts : string list;
      (** per-app layers measured around the parts of one [Dmll.execute]
          on this workload's target *)
}

let create () = { samples = Hashtbl.create 64; fixed = Hashtbl.create 16; parts = [] }

let set_parts t parts = t.parts <- parts

let add t name v =
  Hashtbl.replace t.samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let set t name v = Hashtbl.replace t.fixed name v

let p50 t name =
  match Hashtbl.find_opt t.samples name with
  | None | Some [] -> None
  | Some xs -> Some (Stats.median xs)

(* A sample recorded both per app (for the per-app derivations below) and
   under the global name. *)
let add_both t name ~app v =
  add t name v;
  add t (name ^ "." ^ app) v

(* The compile-pipeline layers of one [Dmll.compile_with] run under
   [tracer]. *)
let record_compile t (tracer : Span.t) (c : Dmll.compiled) =
  List.iter
    (fun (s : Span.span) ->
      match s.Span.name with
      | "generic-optimize" -> add t "opt.optimize_s" (s.Span.dur_us *. 1e-6)
      | "partition-analyze" -> add t "analysis.partition_s" (s.Span.dur_us *. 1e-6)
      | _ -> ())
    (Span.spans tracer);
  add t "opt.rule_firings" (float_of_int (List.length c.Dmll.applied));
  add t "opt.ir_nodes" (float_of_int (Dmll_ir.Exp.node_count c.Dmll.final))

let ratio t ~num ~den =
  match (p50 t num, p50 t den) with
  | Some n, Some d when d > 0.0 -> Some (n /. d)
  | _ -> None

(* Per-app derivations, then every declared metric by name.  What an
   execute took beyond the sum of its measured parts is unattributed. *)
let report (t : t) : (string * float) list =
  List.iter
    (fun app ->
      let at m = m ^ "." ^ app in
      (match p50 t (at "core.execute_s") with
      | None -> ()
      | Some exec -> (
          match List.filter_map (fun m -> p50 t (at m)) t.parts with
          | [] -> ()
          | measured ->
              set t (at "core.unattributed_s")
                (exec -. List.fold_left ( +. ) 0.0 measured)));
      let derive name ~num ~den =
        Option.iter (set t (at name)) (ratio t ~num:(at num) ~den:(at den))
      in
      derive "native.execute_over_kernel" ~num:"core.execute_s" ~den:"native.kernel_s";
      derive "proc.speedup_vs_closure" ~num:"closure.run_s" ~den:"proc.run_s";
      derive "domains.speedup_vs_closure" ~num:"closure.run_s" ~den:"domains.run_s")
    Apps.names;
  List.map
    (fun name ->
      let v =
        match Hashtbl.find_opt t.fixed name with
        | Some v -> v
        | None -> Option.value ~default:0.0 (p50 t name)
      in
      (name, v))
    names
