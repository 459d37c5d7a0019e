(* The applications the steady workload runs each round, at fixed sizes
   (so one kernel per app serves every job), with seeded input
   generators (so every pool entry holds different data). *)

module V = Dmll_interp.Value
module Gaussian = Dmll_data.Gaussian

type t = {
  name : string;
  program : Dmll_ir.Exp.exp;
  elements : int;  (** input rows, line items or edges one run processes *)
  make_inputs : int -> (string * V.t) list;  (** sub-seed -> bindings *)
}

let rows = 2_000
let cols = 20
let k = 10
let pr_edge_factor = 8

let floats st n ~lo ~hi =
  Array.init n (fun _ -> lo +. Random.State.float st (hi -. lo))

let matrix ?(rows = rows) s = Gaussian.generate ~seed:s ~rows ~cols ~classes:k ()

(* A random rank vector summing to 1. *)
let ranks st nv =
  let r = floats st nv ~lo:0.5 ~hi:1.5 in
  let total = Array.fold_left ( +. ) 0.0 r in
  Array.map (fun x -> x /. total) r

let kmeans ?(rows = rows) () =
  { name = "kmeans";
    program = Dmll_apps.Kmeans.program ~rows ~cols ~k ();
    elements = rows;
    make_inputs =
      (fun s ->
        let d = matrix ~rows s in
        Dmll_apps.Kmeans.inputs d
          ~centroids:(Gaussian.random_centroids ~seed:(Seqgen.mix [ s; 1 ]) ~k d));
  }

let logreg () =
  { name = "logreg";
    program = Dmll_apps.Logreg.program ~rows ~cols ~alpha:0.001 ();
    elements = rows;
    make_inputs =
      (fun s ->
        Dmll_apps.Logreg.inputs (matrix s)
          ~theta:(floats (Seqgen.rng [ s; 2 ]) cols ~lo:(-0.1) ~hi:0.1));
  }

let gda () =
  { name = "gda";
    program = Dmll_apps.Gda.program ~rows ~cols ();
    elements = rows;
    make_inputs = (fun s -> Dmll_apps.Gda.inputs (matrix s));
  }

(* Every target gets the AoS [lineitem] binding beside the SoA columns,
   as the interpreter does, so marshalling the unused one stays visible. *)
let tpch_q1 ~q1_rows () =
  { name = "tpch_q1";
    program = Dmll_apps.Tpch_q1.program ();
    elements = q1_rows;
    make_inputs =
      (fun s ->
        let t = Dmll_data.Tpch.generate ~seed:s ~rows:q1_rows () in
        Dmll_apps.Tpch_q1.aos_inputs t @ Dmll_apps.Tpch_q1.soa_inputs t);
  }

let pagerank ~pr_scale () =
  let nv = 1 lsl pr_scale in
  { name = "pagerank";
    program = Dmll_apps.Pagerank.program_pull ~nv ();
    elements = nv * pr_edge_factor;
    make_inputs =
      (fun s ->
        let g =
          Dmll_graph.Csr.of_edges
            (Dmll_data.Rmat.generate ~seed:s ~scale:pr_scale
               ~edge_factor:pr_edge_factor ())
        in
        Dmll_apps.Pagerank.inputs g ~ranks:(ranks (Seqgen.rng [ s; 3 ]) nv));
  }

(* Every app a metric can be suffixed with, in report order. *)
let names = [ "kmeans"; "logreg"; "gda"; "tpch_q1"; "pagerank" ]
