(* Program variants for the cold-start workload: a seeded draw over the
   app builders with varied size constants.  The constants are baked into
   the IR, so distinct (app, sizes) pairs compile to distinct kernel
   cache keys, and each job meets a kernel this process has never seen.
   Inputs are small: the job's time is the compile path, not compute. *)

module V = Dmll_interp.Value
module Gaussian = Dmll_data.Gaussian

type t = {
  app : string;
  params : (string * int) list;
  program : Dmll_ir.Exp.exp;
  elements : int;
  inputs : unit -> (string * V.t) list;
}

let describe (v : t) : string =
  Printf.sprintf "%s(%s)" v.app
    (String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) v.params))

let build ~seed ~index app params : t =
  let p name = List.assoc name params in
  let s = Seqgen.mix [ seed; index; 0x5eed ] in
  let matrix ~classes () =
    Gaussian.generate ~seed:s ~rows:(p "rows") ~cols:(p "cols") ~classes ()
  in
  let v program elements inputs =
    { app; params; program; elements; inputs }
  in
  match app with
  | "kmeans" ->
      let rows = p "rows" and cols = p "cols" and k = p "k" in
      v (Dmll_apps.Kmeans.program ~rows ~cols ~k ()) rows (fun () ->
          let d = matrix ~classes:k () in
          Dmll_apps.Kmeans.inputs d ~centroids:(Gaussian.random_centroids ~k d))
  | "logreg" ->
      let rows = p "rows" and cols = p "cols" in
      v (Dmll_apps.Logreg.program ~rows ~cols ~alpha:0.001 ()) rows (fun () ->
          Dmll_apps.Logreg.inputs (matrix ~classes:2 ()) ~theta:(Array.make cols 0.05))
  | "gda" ->
      let rows = p "rows" and cols = p "cols" in
      v (Dmll_apps.Gda.program ~rows ~cols ()) rows (fun () ->
          Dmll_apps.Gda.inputs (matrix ~classes:2 ()))
  | "pagerank" ->
      let scale = p "scale" in
      let nv = (1 lsl scale) + p "extra" in
      let edge_factor = 4 in
      v (Dmll_apps.Pagerank.program_pull ~nv ()) ((1 lsl scale) * edge_factor)
        (fun () ->
          let e = Dmll_data.Rmat.generate ~seed:s ~scale ~edge_factor () in
          let g = Dmll_graph.Csr.of_edges { e with Dmll_data.Rmat.nv } in
          Dmll_apps.Pagerank.inputs g ~ranks:(Apps.ranks (Seqgen.rng [ s; 3 ]) nv))
  | other -> invalid_arg ("Variants.build: " ^ other)

(* Size constants per app.  Rows stay in a narrow band and PageRank
   keeps one edge count, so a job's input size, and with it the run's
   throughput, does not hang on which variants a seed draws.  Each app
   still has hundreds of variants.  [warm_up] lies outside every job's
   range. *)
let draw st app : (string * int) list =
  let range lo hi = lo + Random.State.int st (hi - lo + 1) in
  match app with
  | "kmeans" -> [ ("rows", range 224 288); ("cols", range 2 10); ("k", range 2 6) ]
  | "logreg" -> [ ("rows", range 224 288); ("cols", range 2 10) ]
  | "gda" -> [ ("rows", range 224 288); ("cols", range 2 8) ]
  | _ -> [ ("scale", 6); ("extra", range 0 255) ]

let apps = [ "kmeans"; "logreg"; "gda"; "pagerank" ]

let warm_up ~seed = build ~seed ~index:(-1) "kmeans" [ ("rows", 48); ("cols", 3); ("k", 2) ]

(* Apps come in blocks holding each app once, in a seeded order, so any
   aligned block of [List.length apps] jobs compiles one of each. *)
type stream = {
  seed : int;
  st : Random.State.t;
  seen : (string * (string * int) list, unit) Hashtbl.t;
  mutable block : string list;
  mutable count : int;
}

let stream ~(seed : int) : stream =
  { seed; st = Seqgen.rng [ seed; 0xc01d ]; seen = Hashtbl.create 64; block = []; count = 0 }

let shuffle st xs =
  List.map (fun x -> (Random.State.bits st, x)) xs
  |> List.sort compare |> List.map snd

(* The next variant never drawn before in this stream. *)
let rec next (s : stream) : t =
  if s.block = [] then s.block <- shuffle s.st apps;
  let app = List.hd s.block in
  let params = draw s.st app in
  if Hashtbl.mem s.seen (app, params) then next s
  else begin
    Hashtbl.add s.seen (app, params) ();
    s.block <- List.tl s.block;
    s.count <- s.count + 1;
    build ~seed:s.seed ~index:(s.count - 1) app params
  end
