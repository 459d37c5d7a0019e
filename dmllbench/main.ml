(* One measuring process of the benchmark (run.py starts it; see
   BENCHMARK.md).  Prints one JSON record as its last stdout line.

     main.exe --workload W --seed N --seconds S --trace 0|1 --work DIR [--setup-only]

   Set-up is timed; then jobs run back to back (one closed-loop client)
   for S seconds, each after a pass of the reference loop (Calib).  The
   record carries the job samples, scaled to the reference speed and as
   wall times.  With --trace 1 the first half of the time runs plain jobs
   and the second half traced jobs, and the record carries the per-layer
   ledger.  With --setup-only the process sets up, cleans up and reports
   the set-up time alone.  Exit 3 means a hygiene check failed. *)

module W = Dmllbench.Workloads
module Stats = Dmllbench.Stats
module Clock = Dmllbench.Clock
module Layers = Dmllbench.Layers
module Calib = Dmllbench.Calib

let min_jobs = 11 (* at least one job with ten ranked above it *)

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let str s = "\"" ^ Dmll_obs.Metrics.json_escape s ^ "\""

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let nums xs = "[" ^ String.concat "," (List.map num (List.rev xs)) ^ "]"

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let status = Dmllbench.Hygiene.read_proc "/proc/self/status" in
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.value ~default:nan

(* Jobs back to back until [seconds] have passed and at least [min_jobs]
   have run, or three times the budget at most. *)
let phase ~seconds (job : unit -> unit) : unit =
  let t0 = Clock.now () in
  let n = ref 0 in
  let hard = Float.max (3.0 *. seconds) 30.0 in
  while
    let t = Clock.now () -. t0 in
    (t < seconds || !n < min_jobs) && t < hard
  do
    Calib.sample ();
    job ();
    incr n
  done

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and work = ref "" and setup_only = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " W.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--work", Arg.Set_string work, "DIR scratch directory of this run");
      ("--setup-only", Arg.Set setup_only, " set up, clean up and report the set-up time only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --work DIR [--setup-only]";
  if not (List.mem !workload W.names) || !work = "" then begin
    prerr_endline "main.exe: --workload and --work are required";
    exit 2
  end;
  let layers = if !trace = 1 then Some (Layers.create ()) else None in
  let ctx = { W.seed = !seed; work = !work } in
  Calib.use (W.reference_loop !workload ctx);
  Calib.sample ();
  let inst, setup_wall_s = Clock.time (fun () -> W.setup !workload ctx layers)
  in
  let finish layers =
    try inst.W.finish layers
    with Dmllbench.Hygiene.Dirty msg ->
      prerr_endline ("hygiene check failed: " ^ msg);
      exit 3
  in
  (* set-up at the process's median speed *)
  let setup_s () = setup_wall_s *. !Calib.loop.Calib.reference_s /. Stats.median !Calib.samples in
  if !setup_only then begin
    for _ = 1 to 5 do
      Calib.sample ()
    done;
    finish None;
    print_endline (obj [ ("setup_s", num (setup_s ())); ("setup_wall_s", num setup_wall_s) ]);
    exit 0
  end;
  let plain = Stats.tally () in
  let budget = if layers = None then !seconds else !seconds /. 2.0 in
  let minor0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
  phase ~seconds:budget (fun () -> inst.W.job None plain);
  let minor = Gc.minor_words () -. minor0 in
  let major = (Gc.quick_stat ()).Gc.major_collections - major0 in
  let tallies =
    match layers with
    | None -> [ plain ]
    | Some l ->
        let traced = Stats.tally () in
        phase ~seconds:budget (fun () -> inst.W.job layers traced);
        let per_job x = x /. float_of_int (Stdlib.max 1 plain.Stats.attempted) in
        Layers.set l "gc.minor_words_per_job" (per_job minor);
        Layers.set l "gc.major_collections_per_job" (per_job (float_of_int major));
        Layers.set l "kernel_cache.hit" (per_job (float_of_int !(inst.W.cache_hits)));
        Layers.set l "kernel_cache.miss" (per_job (float_of_int !(inst.W.cache_misses)));
        if plain.Stats.times <> [] && traced.Stats.times <> [] then
          Layers.set l "trace.overhead"
            (Stats.median traced.Stats.times /. Stats.median plain.Stats.times);
        [ plain; traced ]
  in
  finish layers;
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let first_error = List.find_map (fun t -> t.Stats.first_error) tallies in
  let path = if Lazy.force Dmll_backend.Native.Jit.available then "jit" else "child" in
  print_endline
    (obj
       ([ ("ocaml", str Sys.ocaml_version);
          ("native_path", str path);
          ("setup_s", num (setup_s ()));
          ("setup_wall_s", num setup_wall_s);
          ("attempted", string_of_int (sum (fun t -> t.Stats.attempted)));
          ("failed", string_of_int (sum (fun t -> t.Stats.failed)));
          ("first_error", match first_error with Some e -> str e | None -> "null");
          ("times", nums plain.Stats.times);
          ("wall", nums plain.Stats.wall);
          ("calib", nums !Calib.samples);
          ("elements", string_of_int plain.Stats.elements);
          ("compile_s", nums !(inst.W.compiles));
          ("reported", nums !(inst.W.reported));
          ("peak_rss_mb", num (peak_rss_mb ()));
        ]
       @
       match layers with
       | Some l -> [ ("layers", obj (List.map (fun (k, v) -> (k, num v)) (Layers.report l))) ]
       | None -> []))
