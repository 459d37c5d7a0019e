(* Cluster plan-selection gate (DESIGN.md §15).

   For kmeans, pagerank, and TPC-H Q1 at 1/4/16 cluster nodes: compile
   each program for the simulated cluster (the greedy cost-guided
   selector: communication-vetoed fusion, then the partitioning
   analysis), run it, and compare the static predicted volume with the
   traffic the cluster simulator actually charges.  The sweep hard-fails
   when a value diverges from the sequential reference, or when the
   measured bytes exceed the pinned ceiling — the traffic the retired
   ILP selector's plans measured on the same sweep, so deleting it can
   never have cost bytes.  C-COMM-OVERRUN is armed inline, so each
   plan's own static comm contract is enforced while it runs.

   Emits one JSON line per (app, nodes) — mirrored into BENCH_plan.json:

     {"app":"kmeans","nodes":4,"predicted_bytes":...,
      "measured_bytes":...,"value_ok":true}
*)

module R = Dmll_runtime
module M = Dmll_machine.Machine
module V = Dmll_interp.Value
module Comm = Dmll_analysis.Comm
module Partition = Dmll_analysis.Partition

(* (nodes, measured-bytes ceiling) per app. *)
let ceilings =
  [ ("kmeans", [ (1, 0.); (4, 34368.); (16, 132672.) ]);
    ("pagerank", [ (1, 0.); (4, 601944.); (16, 601944.) ]);
    ("tpch_q1", [ (1, 0.); (4, 98304.); (16, 393216.) ]);
  ]

let apps () =
  let q1 = Lazy.force Datasets.q1_table in
  let ml = Lazy.force Datasets.ml_small in
  let cents = Lazy.force Datasets.centroids_small in
  let pr = Lazy.force Datasets.pr_graph in
  [ ( "kmeans",
      Dmll_apps.Kmeans.program ~rows:Datasets.ml_rows_small ~cols:Datasets.ml_cols
        ~k:Datasets.kmeans_k (),
      Dmll_apps.Kmeans.inputs ml ~centroids:cents );
    ( "pagerank",
      Dmll_apps.Pagerank.program_pull ~nv:pr.Dmll_graph.Csr.nv (),
      Dmll_apps.Pagerank.inputs pr ~ranks:(Dmll_apps.Pagerank.initial_ranks pr) );
    ( "tpch_q1",
      Dmll_apps.Tpch_q1.program (),
      Dmll_apps.Tpch_q1.aos_inputs q1 @ Dmll_apps.Tpch_q1.soa_inputs q1 );
  ]

let input_lens_of (inputs : (string * V.t) list) : (string * int) list =
  List.filter_map
    (fun (n, v) ->
      match v with V.Varr _ -> Some (n, V.length v) | _ -> None)
    inputs

let traffic_sum (r : Dmll.run_result) : float =
  List.fold_left (fun acc (_, b) -> acc +. b) 0.0 r.Dmll.traffic

(* Compile + run on the simulated cluster; returns (predicted, measured,
   value). *)
let run_on ~machine ~input_lens program inputs =
  let config = { R.Sim_cluster.default_config with cluster = machine } in
  let cfg = Dmll.Config.(default |> with_target (Dmll.Cluster config)) in
  let c = Dmll.compile_with cfg program in
  let predicted =
    Partition.predicted_volume ~input_lens ~machine c.Dmll.final
  in
  let r = Dmll.execute cfg c ~inputs in
  (predicted, traffic_sum r, r.Dmll.value)

let run () =
  Printf.printf
    "Cluster plan selection: predicted and measured traffic\n\
     (contract: measured simulator traffic <= the pinned ceiling;\n\
     \ C-COMM-OVERRUN armed while the sweep runs).\n\n";
  let out = open_out "BENCH_plan.json" in
  let saved = !Comm.validate_enabled in
  Comm.validate_enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Comm.validate_enabled := saved;
      close_out out)
    (fun () ->
      List.iter
        (fun (name, program, inputs) ->
          let reference =
            (Dmll.execute Dmll.Config.default
               (Dmll.compile_with Dmll.Config.default program)
               ~inputs)
              .Dmll.value
          in
          let input_lens = input_lens_of inputs in
          List.iter
            (fun (n, ceiling) ->
              let machine = M.with_nodes n M.ec2_cluster in
              let predicted, measured, v =
                run_on ~machine ~input_lens program inputs
              in
              let ok =
                V.equal v reference || V.approx_equal ~eps:1e-6 reference v
              in
              let line =
                Printf.sprintf
                  "{\"app\":%S,\"nodes\":%d,\"predicted_bytes\":%.0f,\"measured_bytes\":%.0f,\"value_ok\":%b}"
                  name n predicted measured ok
              in
              Printf.printf "%s\n%!" line;
              output_string out (line ^ "\n");
              if not ok then begin
                Printf.eprintf "plan_validate: %s@%d nodes: value mismatch\n"
                  name n;
                exit 1
              end;
              if measured > ceiling then begin
                Printf.eprintf
                  "plan_validate: %s@%d nodes: measured %.0fB > pinned %.0fB\n"
                  name n measured ceiling;
                exit 1
              end)
            (List.assoc name ceilings))
        (apps ()))
