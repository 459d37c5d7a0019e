(* The workloads.  Each is measured from the outside: a job is timed
   with the monotonic clock around the public calls a user makes
   ([Dmll.compile_with], [Dmll.execute]); [run_result.seconds] is only
   recorded beside it.  A traced job runs the same calls with a tracer
   and then times each layer's public functions on the same inputs. *)

module V = Dmll_interp.Value
module Metrics = Dmll_obs.Metrics
module Span = Dmll_obs.Span
module Native = Dmll_backend.Native
module R = Dmll_runtime

type ctx = { seed : int; work : string  (** this run's scratch directory *) }

(* A set-up workload, ready to run jobs. *)
type instance = {
  job : Layers.t option -> Stats.tally -> unit;
      (** run one job into the tally; with a ledger, run it traced and
          probe its layers *)
  compiles : float list ref;
      (** seconds ([Calib.scale]d) to [Dmll.compile_with] one of each of
          the workload's apps *)
  reported : float list ref;  (** per job: sum of [run_result.seconds] *)
  cache_hits : int ref;  (** kernel-cache counters of untraced jobs *)
  cache_misses : int ref;
  finish : Layers.t option -> unit;
      (** final ledger entries, then the hygiene checks (raise
          [Hygiene.Dirty]) *)
}

let names = [ "native-steady"; "cold-start" ]

let proc_config = { R.Proc_cluster.default_config with workers = 2 }

let count_cache inst (r : Dmll.run_result) =
  inst.cache_hits := !(inst.cache_hits) + Metrics.count r.Dmll.metrics "kernel_cache_hit";
  inst.cache_misses := !(inst.cache_misses) + Metrics.count r.Dmll.metrics "kernel_cache_miss"

let traced_cfg cfg = Dmll.Config.with_tracer (Span.create ()) cfg

let tracer_of (cfg : Dmll.Config.t) =
  Option.get cfg.Dmll.Config.tracer

let rec disk_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc + disk_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

let blank () =
  { job = (fun _ _ -> ());
    compiles = ref [];
    reported = ref [];
    cache_hits = ref 0;
    cache_misses = ref 0;
    finish = ignore;
  }

(* Timed [compile_with]; with a tracer set, its compile spans go to the
   ledger. *)
let compile layers cfg program =
  let c, dt = Clock.time (fun () -> Dmll.compile_with cfg program) in
  Option.iter (fun l -> Layers.record_compile l (tracer_of cfg) c) layers;
  (c, dt)

(* The kernel source the native backend would emit, timed. *)
let probe_emit l (c : Dmll.compiled) =
  let src, dt =
    Clock.time (fun () ->
        Dmll_backend.Codegen_ocaml.emit_kernel ~key:(Native.cache_key c.Dmll.final)
          c.Dmll.final)
  in
  Layers.add l "codegen.emit_s" dt;
  Layers.add l "codegen.source_bytes" (float_of_int (String.length src))

let minor_per_elem words elements = words /. float_of_int (Stdlib.max 1 elements)

(* ------------------------------------------------------------------ *)
(* Rounds: native-steady                                              *)
(* ------------------------------------------------------------------ *)

let pool_size = 2

(* Untimed rounds closing set-up: the first rounds after the warm-up
   executes still grow the heap and page in the pool. *)
let warm_up_rounds = 4

type prepared = {
  app : Apps.t;
  compiled : Dmll.compiled;
  pool : ((string * V.t) list * V.t) array;  (** inputs, interpreter value *)
}

(* Layer probes run after a traced round, on the inputs each app just
   used. *)
let probe_native ~cache l (p : prepared) inputs =
  let app = p.app.Apps.name in
  let (kernel, _), resolve =
    Clock.time (fun () -> Native.Jit.kernel_for ~cache p.compiled.Dmll.final)
  in
  let blob, marshal = Clock.time (fun () -> Marshal.to_string inputs []) in
  let w0 = Gc.minor_words () in
  let _, kernel_s = Clock.time (fun () -> kernel blob) in
  let words = Gc.minor_words () -. w0 in
  Layers.add_both l "native.resolve_s" ~app resolve;
  Layers.add_both l "native.marshal_in_s" ~app marshal;
  Layers.add l "native.marshal_in_bytes" (float_of_int (String.length blob));
  Layers.add_both l "native.kernel_s" ~app kernel_s;
  Layers.add l ("native.kernel_minor_words_per_elem." ^ app)
    (minor_per_elem words p.app.Apps.elements)

let probe_closure l (p : prepared) inputs =
  let app = p.app.Apps.name in
  let w0 = Gc.minor_words () in
  let _, dt =
    Clock.time (fun () ->
        let exe = Dmll_backend.Closure.compile p.compiled.Dmll.final in
        exe.Dmll_backend.Closure.run ~inputs ())
  in
  let words = Gc.minor_words () -. w0 in
  Layers.add l ("closure.run_s." ^ app) dt;
  Layers.add l ("closure.minor_words_per_elem." ^ app)
    (minor_per_elem words p.app.Apps.elements)

let probe_proc l (p : prepared) inputs =
  let app = p.app.Apps.name in
  let r, dt =
    Clock.time (fun () -> R.Proc_cluster.run ~config:proc_config ~inputs p.compiled.Dmll.final)
  in
  let loops = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 r.R.Proc_cluster.breakdown in
  let st = r.R.Proc_cluster.stats in
  Layers.add l ("proc.run_s." ^ app) dt;
  Layers.add l ("proc.loops_s." ^ app) loops;
  Layers.add l ("proc.outside_loops_s." ^ app) (dt -. loops);
  Layers.add l "proc.spawned" (float_of_int st.R.Proc_cluster.spawned);
  Layers.add l "proc.io_retries" (float_of_int st.R.Proc_cluster.io_retries);
  Layers.add l "proc.replans" (float_of_int st.R.Proc_cluster.replans);
  Layers.add l "proc.master_chunks" (float_of_int st.R.Proc_cluster.master_chunks)

let probe_domains l (p : prepared) inputs =
  let _, dt =
    Clock.time (fun () -> R.Exec_domains.run ~domains:2 ~inputs p.compiled.Dmll.final)
  in
  Layers.add l ("domains.run_s." ^ p.app.Apps.name) dt

let round ~(ctx : ctx) ~(layers : Layers.t option) ~(target : Dmll.target)
    ~(apps : Apps.t list)
    ~(probes : Layers.t -> prepared -> (string * V.t) list -> unit)
    ~(native_root : string option) : instance =
  let cfg = Dmll.Config.(default |> with_target target) in
  let cfg =
    match native_root with
    | Some root -> Dmll.Config.with_kernel_cache_dir root cfg
    | None -> cfg
  in
  let inst = blank () in
  let compile_round () =
    let cs =
      List.map
        (fun (app : Apps.t) ->
          (* a tracer per compile, so each compile's spans are read once *)
          let cfg = if layers = None then cfg else traced_cfg cfg in
          compile layers cfg app.Apps.program)
        apps
    in
    inst.compiles :=
      Calib.scale (List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 cs) :: !(inst.compiles);
    List.map fst cs
  in
  let compiled = compile_round () in
  let pools =
    List.mapi
      (fun i (app : Apps.t) ->
        Array.init pool_size (fun e ->
            let inputs = app.Apps.make_inputs (Seqgen.mix [ ctx.seed; i; e ]) in
            (inputs, Dmll_interp.Interp.run ~inputs app.Apps.program)))
      apps
  in
  let prepared =
    List.map2 (fun app (compiled, pool) -> { app; compiled; pool }) apps
      (List.combine compiled pools)
    |> Array.of_list
  in
  (* warm-up: on native this generates, compiles and links every kernel;
     a traced set-up times those layers first *)
  Array.iter
    (fun p ->
      (match (layers, native_root) with
      | Some l, Some _ when Lazy.force Native.Jit.available ->
          probe_emit l p.compiled;
          let _, dt =
            Clock.time (fun () ->
                Native.Jit.kernel_for ~cache:(Dmll.Backends.cache_for native_root)
                  p.compiled.Dmll.final)
          in
          Layers.add l "native.compile_s" dt
      | _ -> ());
      ignore (Dmll.execute cfg p.compiled ~inputs:(fst p.pool.(0))))
    prepared;
  let elements = Array.fold_left (fun acc p -> acc + p.app.Apps.elements) 0 prepared in
  let job order layers tally =
    let picks = Seqgen.next order in
    let inputs a = fst prepared.(a).pool.(picks.(a)) in
    let cfg = if layers = None then cfg else traced_cfg cfg in
    Stats.record tally ~elements (fun () ->
        let results, dt =
          Clock.time (fun () ->
              Array.mapi
                (fun a p ->
                  let r, de =
                    Clock.time (fun () -> Dmll.execute cfg p.compiled ~inputs:(inputs a))
                  in
                  Option.iter
                    (fun l -> Layers.add l ("core.execute_s." ^ p.app.Apps.name) de)
                    layers;
                  r)
                prepared)
        in
        if layers = None then Array.iter (count_cache inst) results;
        inst.reported :=
          Array.fold_left (fun acc r -> acc +. r.Dmll.seconds) 0.0 results
          :: !(inst.reported);
        Option.iter (fun l -> Array.iteri (fun a p -> probes l p (inputs a)) prepared) layers;
        ( dt,
          Array.to_list
            (Array.mapi
               (fun a p ->
                 ( p.app.Apps.name,
                   Stats.check ~reassociates:false
                     ~reference:(snd p.pool.(picks.(a)))
                     results.(a).Dmll.value ))
               prepared) ))
  in
  let warm_order = Seqgen.order ~seed:(Seqgen.mix [ ctx.seed; 1 ]) ~apps:(Array.length prepared) ~pool:pool_size in
  for _ = 1 to warm_up_rounds do
    job warm_order None (Stats.tally ())
  done;
  inst.cache_hits := 0;
  inst.cache_misses := 0;
  let order = Seqgen.order ~seed:ctx.seed ~apps:(Array.length prepared) ~pool:pool_size in
  (* a compile round after every job: compile times sampled across the
     whole timed phase, as the jobs are, not in one burst *)
  let job layers tally =
    job order layers tally;
    ignore (compile_round ())
  in
  { inst with job }

(* The parallel executors' layers, probed at the end of the traced
   native-steady run: the apps a process-cluster user would run, compiled
   for [Proc_cluster] with 2 workers, each run on [pool_size] input sets
   by the closure backend (the sequential reference) and by
   [Proc_cluster.run], [parallel_pass_runs] times; then, since a process
   that has spawned domains cannot fork, by [Exec_domains.run
   ~domains:2]. *)
let parallel_pass_runs = 3

let parallel_layers (ctx : ctx) (l : Layers.t) : unit =
  let cfg = Dmll.Config.(default |> with_target (Dmll.Proc_cluster proc_config)) in
  let runs =
    List.mapi
      (fun i (app : Apps.t) ->
        let p = { app; compiled = Dmll.compile_with cfg app.Apps.program; pool = [||] } in
        (p, List.init pool_size (fun e -> app.Apps.make_inputs (Seqgen.mix [ ctx.seed; i; e ]))))
      Apps.[ kmeans ~rows:6_000 (); logreg (); pagerank ~pr_scale:16 (); tpch_q1 ~q1_rows:80_000 () ]
  in
  let pass probe =
    for _ = 1 to parallel_pass_runs do
      List.iter (fun (p, inputs) -> List.iter (probe l p) inputs) runs
    done
  in
  pass (fun l p inputs ->
      probe_closure l p inputs;
      probe_proc l p inputs);
  pass probe_domains

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)
(* ------------------------------------------------------------------ *)

let native_steady ctx layers =
  let root = Filename.concat ctx.work "kcache-steady" in
  let tmp = Filename.get_temp_dir_name () in
  let scratch = Hygiene.scratch_dirs tmp in
  let clean = Hygiene.snapshot () in
  let cache = Dmll.Backends.cache_for (Some root) in
  let probes l p inputs =
    if Lazy.force Native.Jit.available then probe_native ~cache l p inputs
  in
  Option.iter
    (fun l -> Layers.set_parts l [ "native.resolve_s"; "native.marshal_in_s"; "native.kernel_s" ])
    layers;
  let inst =
    round ~ctx ~layers ~target:Dmll.Native
      ~apps:Apps.[ kmeans (); logreg (); gda (); tpch_q1 ~q1_rows:10_000 (); pagerank ~pr_scale:12 () ]
      ~probes ~native_root:(Some root)
  in
  let finish layers =
    Option.iter
      (fun l ->
        Layers.set l "kernel_cache.disk_bytes" (float_of_int (disk_bytes root));
        parallel_layers ctx l)
      layers;
    Hygiene.check_native_clean ~root ~tmp ~before:scratch;
    Hygiene.check_process_clean clean
  in
  { inst with finish }

(* One job: compile a never-seen variant and execute it once, against an
   initially empty kernel-cache root. *)
let cold_start ctx _layers =
  let root = Filename.concat ctx.work "kcache-cold" in
  let tmp = Filename.get_temp_dir_name () in
  let scratch = Hygiene.scratch_dirs tmp in
  let clean = Hygiene.snapshot () in
  let cache = Dmll.Backends.cache_for (Some root) in
  let cfg = Dmll.Config.(default |> with_target Dmll.Native |> with_kernel_cache_dir root) in
  let variants = Variants.stream ~seed:ctx.seed in
  let inst = blank () in
  (* warm-up: a variant outside the job stream loads the toolchain *)
  (let v = Variants.warm_up ~seed:ctx.seed in
   let c = Dmll.compile_with cfg v.Variants.program in
   ignore (Dmll.execute cfg c ~inputs:(v.Variants.inputs ())));
  let block = ref [] in
  let record_compile dt =
    block := Calib.scale dt :: !block;
    if List.length !block = List.length Variants.apps then begin
      inst.compiles := List.fold_left ( +. ) 0.0 !block :: !(inst.compiles);
      block := []
    end
  in
  let job layers tally =
    let v = Variants.next variants in
    let inputs = v.Variants.inputs () in
    let reference = Dmll_interp.Interp.run ~inputs v.Variants.program in
    let cfg = if layers = None then cfg else traced_cfg cfg in
    Stats.record tally ~elements:v.Variants.elements (fun () ->
        let (c, r), dt =
          Clock.time (fun () ->
              let c, dc = Clock.time (fun () -> Dmll.compile_with cfg v.Variants.program) in
              record_compile dc;
              (* traced: the kernel miss is timed on its own, so the
                 execute after it finds the kernel linked *)
              Option.iter
                (fun l ->
                  if Lazy.force Native.Jit.available then
                    Layers.add l "native.compile_s"
                      (snd (Clock.time (fun () -> Native.Jit.kernel_for ~cache c.Dmll.final))))
                layers;
              let r, de = Clock.time (fun () -> Dmll.execute cfg c ~inputs) in
              Option.iter (fun l -> Layers.add l ("core.execute_s." ^ v.Variants.app) de) layers;
              (c, r))
        in
        Option.iter
          (fun l ->
            Layers.record_compile l (tracer_of cfg) c;
            probe_emit l c)
          layers;
        if layers = None then count_cache inst r;
        inst.reported := r.Dmll.seconds :: !(inst.reported);
        ( dt,
          [ ( Variants.describe v,
              Stats.check ~reassociates:false ~reference r.Dmll.value ) ] ))
  in
  let finish layers =
    Option.iter
      (fun l -> Layers.set l "kernel_cache.disk_bytes" (float_of_int (disk_bytes root)))
      layers;
    Hygiene.check_native_clean ~root ~tmp ~before:scratch;
    Hygiene.check_process_clean clean
  in
  { inst with job; finish }

(* The reference loop a workload's jobs are scaled by (Calib). *)
let reference_loop (name : string) (ctx : ctx) : Calib.loop =
  match name with
  | "cold-start" -> Calib.toolchain ~dir:(Filename.concat ctx.work "reference")
  | _ -> Calib.marshal

let setup (name : string) : ctx -> Layers.t option -> instance =
  match name with
  | "native-steady" -> native_steady
  | "cold-start" -> cold_start
  | other -> invalid_arg ("unknown workload " ^ other)
