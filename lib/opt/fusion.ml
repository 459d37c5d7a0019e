(** Multiloop fusion.

    - {e Vertical (pipeline) fusion} implements the paper's generalized
      rule (§3.1):

      {v C = Collect_s(c1)(f1)            G_s(c1&c2)(k(f1))(f2(f1))(r)
         G_C(c2)(k)(f2)(r)          -->                                v}

      A [Collect] whose only consumers are positional reads at the index of
      loops traversing it is inlined into those loops, eliminating the
      intermediate collection.  This single rule covers map-map, map-reduce,
      filter-groupBy, and every other pipeline combination.

    - {e Horizontal fusion} merges adjacent independent loops of identical
      size into one multiloop with several generators, so a single
      traversal produces several results (§3.1; k-means' two bucketReduces
      in Figure 5 are the canonical example).

    - {e Dead-generator elimination} drops generators of a multiloop whose
      results are never projected, the loop-level analogue of dead-field
      elimination. *)

open Dmll_ir
open Exp

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

(** Replace the first (pre-order) subexpression where [f] fires. *)
let replace_first (f : exp -> exp option) (e : exp) : exp option =
  let hit = ref false in
  let rec go e =
    if !hit then e
    else
      match f e with
      | Some e' ->
          hit := true;
          e'
      | None -> map_sub go e
  in
  let e' = go e in
  if !hit then Some e' else None

(** All loops anywhere in [e] whose size is [Len (Var s)]. *)
let consumer_loops_of (s : Sym.t) (e : exp) : loop list =
  List.filter
    (fun l -> alpha_equal l.size (Len (Var s)))
    (loops_of e)

(** Outermost loops of [e] (loops not nested inside another loop).  Fusing
    a producer into a {e nested} consumer would recompute it once per outer
    iteration, so only outermost consumers are eligible. *)
let outer_loops (e : exp) : loop list =
  let acc = ref [] in
  let rec go e =
    match e with
    | Loop l -> acc := l :: !acc
    | _ -> ignore (map_sub (fun s -> go s; s) e)
  in
  go e;
  List.rev !acc

(** Outermost loops whose size is [Len (Var s)] or, when the producer is
    unconditional so its length statically equals [psize], any outermost
    loop of size alpha-equal to [psize] (constant sizes survive the
    len-of-collect simplification). *)
let consumer_loops_of_sized (s : Sym.t) ~(psize : exp) ~(unconditional : bool)
    (e : exp) : loop list =
  List.filter
    (fun l ->
      alpha_equal l.size (Len (Var s))
      || (unconditional && alpha_equal l.size psize))
    (outer_loops e)

(** Within consumer loop [l], is every use of [s] a positional read
    [Read (Var s, Var l.idx)]?  ([Len (Var s)] occurrences inside the loop
    body are disallowed; the loop's own size node is not part of the
    census.) *)
let positional_only (s : Sym.t) (l : loop) : bool =
  let rec ok e =
    match e with
    | Read (Var s', Var j) when Sym.equal s s' -> Sym.equal j l.idx
    | Read (Var s', _) when Sym.equal s s' -> false (* non-positional index *)
    | Var s' when Sym.equal s s' -> false (* bare use, incl. Len (Var s) *)
    | _ -> fold_sub (fun acc sub -> acc && ok sub) true e
  in
  let parts g =
    let ps = List.filter_map Fun.id [ gen_cond g; Some (gen_value g); gen_key g ] in
    match g with
    | Reduce { rfun; init; _ } | BucketReduce { rfun; init; _ } -> rfun :: init :: ps
    | _ -> ps
  in
  List.for_all (fun g -> List.for_all ok (parts g)) l.gens

(** Number of occurrences of [Var s] in [e] that are NOT of the form
    [Read (Var s, _)] or [Len (Var s)] at the top of the occurrence. *)
let rec irregular_uses (s : Sym.t) (e : exp) : int =
  match e with
  | Read (Var s', i) when Sym.equal s s' -> irregular_uses s i
  | Len (Var s') when Sym.equal s s' -> 0
  | Var s' when Sym.equal s s' -> 1
  | _ -> fold_sub (fun acc sub -> acc + irregular_uses s sub) 0 e

(* ------------------------------------------------------------------ *)
(* Vertical fusion                                                      *)
(* ------------------------------------------------------------------ *)

(* Inline producer value [f1] (with producer index [pidx]) at consumer
   index [cidx]: a fresh copy with pidx renamed. *)
let inline_value ~pidx ~cidx f1 = refresh_binders (subst1 pidx (Var cidx) f1)

let fuse_into ~(s : Sym.t) ~(pidx : Sym.t) ~(psize : exp) ~(c1 : exp option)
    ~(f1 : exp) (l : loop) : loop =
  let cidx = l.idx in
  (* rewrite every positional read of s into an inlined copy of f1 *)
  let rec rw e =
    match e with
    | Read (Var s', Var j) when Sym.equal s s' && Sym.equal j cidx ->
        inline_value ~pidx ~cidx f1
    | _ -> map_sub rw e
  in
  let rw_gen g =
    let g = map_gen_parts rw g in
    match g with
    | Reduce r -> Reduce { r with rfun = rw r.rfun }
    | BucketReduce r -> BucketReduce { r with rfun = rw r.rfun }
    | g -> g
  in
  let conj c2 =
    match (c1, c2) with
    | None, c2 -> c2
    | Some c1, None -> Some (refresh_binders (subst1 pidx (Var cidx) c1))
    | Some c1, Some c2 ->
        Some
          (Prim (Prim.And, [ refresh_binders (subst1 pidx (Var cidx) c1); c2 ]))
  in
  let with_cond g =
    match g with
    | Collect c -> Collect { c with cond = conj c.cond }
    | Reduce r -> Reduce { r with cond = conj r.cond }
    | BucketCollect c -> BucketCollect { c with cond = conj c.cond }
    | BucketReduce r -> BucketReduce { r with cond = conj r.cond }
  in
  { size = refresh_binders psize; idx = cidx; gens = List.map (fun g -> with_cond (rw_gen g)) l.gens }

(** How large may a producer body be before we refuse to duplicate it into
    multiple consumers?  A single consumer always fuses. *)
let dup_threshold = 16

let vertical : Rewrite.rule =
  { rname = "pipeline-fusion";
    apply =
      (function
      | Let (s, Loop { size = psize; idx = pidx; gens = [ Collect { cond = c1; value = f1 } ] }, body)
        when Rewrite.pure f1
             && (match c1 with None -> true | Some c -> Rewrite.pure c)
             && Rewrite.pure psize ->
          let consumers =
            consumer_loops_of_sized s ~psize ~unconditional:(c1 = None) body
          in
          (* all uses of s must live inside those outermost consumers *)
          let uses_in_consumers =
            List.fold_left (fun acc l -> acc + count_occ s (Loop l)) 0 consumers
          in
          if consumers = [] then None
          else if count_occ s body <> uses_in_consumers then None
          else if not (List.for_all (positional_only s) consumers) then None
          else if irregular_uses s body > 0 then None
          else if
            (* every Len (Var s) in the body must be a consumer-loop size
               node; equivalently the count of Len(Var s) equals the count
               of consumers (sizes) since positional_only excludes Lens
               inside loop bodies *)
            List.length consumers > 1 && node_count f1 > dup_threshold
          then None
          else
            let n_lens =
              fold
                (fun acc e ->
                  match e with Len (Var s') when Sym.equal s s' -> acc + 1 | _ -> acc)
                0 body
            in
            let len_sized_consumers =
              List.length
                (List.filter (fun l -> alpha_equal l.size (Len (Var s))) consumers)
            in
            if n_lens <> len_sized_consumers then None
            else
              (* replace each consumer loop with its fused version *)
              let body' =
                List.fold_left
                  (fun acc l ->
                    match
                      replace_first
                        (function
                          | Loop l' when l' == l ->
                              Some (Loop (fuse_into ~s ~pidx ~psize ~c1 ~f1 l))
                          | _ -> None)
                        acc
                    with
                    | Some acc' -> acc'
                    | None -> acc)
                  body consumers
              in
              if occurs s body' then None else Some body'
      | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Horizontal fusion                                                    *)
(* ------------------------------------------------------------------ *)

(** Communication tie-break for horizontal fusion.  The driver passes
    the partitioning analysis's predicted-volume objective for cluster
    targets ({!horizontal_with}); a fusion candidate that would move
    {e more} bytes than the unfused pair is then declined: merging a
    master-only loop into a distributed one forces broadcasts of its
    inputs, which can dwarf the saved traversal.  Without an objective
    fusion is unconditional — shared-memory targets have no
    communication to lose.  The closure type lives here (not a concrete
    analysis call) so [dmll_opt] stays below [dmll_analysis] in the
    library order; only the closure crosses. *)
type objective = exp -> float

(* Does [objective] veto replacing [before] with [after]?  Strict
   increase only: equal-volume fusions keep firing, preserving the
   shared-memory behavior whenever communication is unaffected. *)
let objective_vetoes ?on_reject (objective : objective) ~(before : exp)
    ~(after : exp) : bool =
  let vb = objective before and va = objective after in
  if va > vb then begin
    Option.iter (fun f -> f ()) on_reject;
    Logs.debug (fun m ->
        m "horizontal-fusion declined: predicted comm %.0fB -> %.0fB" vb va);
    true
  end
  else false

(* Substitute the index of loop [l] by [idx] in all generator parts. *)
let retarget_gens ~(from_idx : Sym.t) ~(to_idx : Sym.t) (gens : gen list) : gen list =
  let rw e = refresh_binders (subst1 from_idx (Var to_idx) e) in
  List.map
    (fun g ->
      let g = map_gen_parts rw g in
      match g with
      | Reduce r -> Reduce { r with rfun = rw r.rfun }
      | BucketReduce r -> BucketReduce { r with rfun = rw r.rfun }
      | g -> g)
    gens

(* Bind [s] (the original result of a loop with [n] generators) out of the
   fused tuple starting at generator offset [off]. *)
let rebind_result (fused : Sym.t) (s : Sym.t) ~(off : int) ~(n : int) (body : exp) : exp =
  let projs = List.init n (fun k -> Proj (Var fused, off + k)) in
  let bound = match projs with [ p ] -> p | ps -> Tuple ps in
  Let (s, bound, body)

(** The horizontal-fusion rule, parameterized by an optional
    communication [objective] (and an [on_reject] observer counting the
    candidates the objective declined).  {!horizontal} below is the
    unconditional shared-memory instance. *)
let horizontal_with ?(objective : objective option) ?on_reject () :
    Rewrite.rule =
  { rname = "horizontal-fusion";
    apply =
      (function
      | Let (s1, Loop l1, Let (s2, Loop l2, body)) as before
        when alpha_equal l1.size l2.size
             && Rewrite.pure l1.size
             && not (Sym.Set.mem s1 (free_vars (Loop l2)))
             && Rewrite.pure (Loop l1)
             && Rewrite.pure (Loop l2) ->
          let n1 = List.length l1.gens and n2 = List.length l2.gens in
          let gens2 = retarget_gens ~from_idx:l2.idx ~to_idx:l1.idx l2.gens in
          let fused_loop = Loop { size = l1.size; idx = l1.idx; gens = l1.gens @ gens2 } in
          let res_tys =
            match Typecheck.check_closed fused_loop with
            | Ok (Types.Tup ts) -> Some ts
            | Ok t -> Some [ t ]
            | Error _ -> (
                (* free program variables: infer with declared types *)
                try
                  match
                    Typecheck.infer
                      (Sym.Set.fold
                         (fun s acc -> Sym.Map.add s (Sym.ty s) acc)
                         (free_vars fused_loop) Sym.Map.empty)
                      fused_loop
                  with
                  | Types.Tup ts -> Some ts
                  | t -> Some [ t ]
                with Typecheck.Type_error _ -> None)
          in
          (match res_tys with
          | None -> None
          | Some tys ->
              let fused = Sym.fresh ~name:"fz" (Types.Tup tys) in
              let after =
                Let
                  ( fused,
                    fused_loop,
                    rebind_result fused s1 ~off:0 ~n:n1
                      (rebind_result fused s2 ~off:n1 ~n:n2 body) )
              in
              let vetoed =
                match objective with
                | None -> false
                | Some obj -> objective_vetoes ?on_reject obj ~before ~after
              in
              if vetoed then None else Some after)
      | _ -> None);
  }

let horizontal : Rewrite.rule = horizontal_with ()

(* Float non-loop bindings above loop bindings so that independent loops
   become adjacent in the let-spine and horizontal fusion can see them. *)
let let_float : Rewrite.rule =
  { rname = "let-float";
    apply =
      (function
      | Let (s1, (Loop _ as l), Let (x, e, rest))
        when loop_free e
             && Rewrite.pure e
             && Rewrite.pure l
             && not (Sym.Set.mem s1 (free_vars e)) ->
          Some (Let (x, e, Let (s1, l, rest)))
      | _ -> None);
  }

(* ------------------------------------------------------------------ *)
(* Dead-generator elimination                                           *)
(* ------------------------------------------------------------------ *)

let dead_gen : Rewrite.rule =
  { rname = "dead-generator";
    apply =
      (function
      | Let (s, Loop ({ gens; _ } as l), body)
        when List.length gens > 1 && Rewrite.pure (Loop l) ->
          (* all uses must be projections *)
          let n = List.length gens in
          let rec proj_only e =
            match e with
            | Proj (Var s', _) when Sym.equal s s' -> true
            | Var s' when Sym.equal s s' -> false
            | _ -> fold_sub (fun acc sub -> acc && proj_only sub) true e
          in
          if not (proj_only body) then None
          else
            let used = Array.make n false in
            ignore
              (fold
                 (fun () e ->
                   match e with
                   | Proj (Var s', k) when Sym.equal s s' && k < n -> used.(k) <- true
                   | _ -> ())
                 () body);
            let live = Array.to_list used |> List.filter (fun b -> b) |> List.length in
            if live = n || live = 0 then None
            else
              let keep = List.filteri (fun k _ -> used.(k)) gens in
              let remap = Array.make n (-1) in
              let c = ref 0 in
              Array.iteri
                (fun k u ->
                  if u then begin
                    remap.(k) <- !c;
                    incr c
                  end)
                used;
              let keep_tys =
                match Sym.ty s with
                | Types.Tup ts -> List.filteri (fun k _ -> used.(k)) ts
                | _ -> []
              in
              if List.length keep_tys <> live then None
              else if live = 1 then
                (* loop result is no longer a tuple; rebind with new sym *)
                let s' = Sym.fresh ~name:(Sym.name s) (List.hd keep_tys) in
                let rec rw e =
                  match e with
                  | Proj (Var sv, _) when Sym.equal sv s -> Var s'
                  | _ -> map_sub rw e
                in
                Some (Let (s', Loop { l with gens = keep }, rw body))
              else
                let s' = Sym.fresh ~name:(Sym.name s) (Types.Tup keep_tys) in
                let rec rw e =
                  match e with
                  | Proj (Var sv, k) when Sym.equal sv s -> Proj (Var s', remap.(k))
                  | _ -> map_sub rw e
                in
                Some (Let (s', Loop { l with gens = keep }, rw body))
      | _ -> None);
  }

(* Duplicate-generator elimination: horizontal fusion of rule-generated
   multiloops (Q1's per-aggregate rewriting) can produce alpha-equal
   generators; keep one and remap projections. *)
let dedup_gen : Rewrite.rule =
  { rname = "dedup-generator";
    apply =
      (function
      | Let (s, Loop ({ gens; _ } as l), body)
        when List.length gens > 1 && Rewrite.pure (Loop l) ->
          let n = List.length gens in
          let rec proj_only e =
            match e with
            | Proj (Var s', _) when Sym.equal s s' -> true
            | Var s' when Sym.equal s s' -> false
            | _ -> fold_sub (fun acc sub -> acc && proj_only sub) true e
          in
          if not (proj_only body) then None
          else begin
            let arr = Array.of_list gens in
            let gen_equal g1 g2 =
              (* compare as single-gen loops to get binder-aware equality *)
              alpha_equal
                (Loop { l with gens = [ g1 ] })
                (Loop { l with gens = [ g2 ] })
            in
            let remap = Array.make n (-1) in
            let keep = ref [] in
            let kept = ref 0 in
            Array.iteri
              (fun i g ->
                let rec find j =
                  if j >= i then None
                  else if gen_equal arr.(j) g then Some remap.(j)
                  else find (j + 1)
                in
                match find 0 with
                | Some k -> remap.(i) <- k
                | None ->
                    remap.(i) <- !kept;
                    incr kept;
                    keep := g :: !keep)
              arr;
            if !kept = n then None
            else begin
              let keep = List.rev !keep in
              let keep_tys =
                match Sym.ty s with
                | Types.Tup ts ->
                    let t_arr = Array.of_list ts in
                    List.init !kept (fun k ->
                        (* type of the first original index mapping to k *)
                        let rec first i = if remap.(i) = k then t_arr.(i) else first (i + 1) in
                        first 0)
                | t -> [ t ]
              in
              if !kept = 1 then begin
                let s' = Sym.fresh ~name:(Sym.name s) (List.hd keep_tys) in
                let rec rw e =
                  match e with
                  | Proj (Var sv, _) when Sym.equal sv s -> Var s'
                  | _ -> map_sub rw e
                in
                Some (Let (s', Loop { l with gens = keep }, rw body))
              end
              else begin
                let s' = Sym.fresh ~name:(Sym.name s) (Types.Tup keep_tys) in
                let rec rw e =
                  match e with
                  | Proj (Var sv, k) when Sym.equal sv s && k < n ->
                      Proj (Var s', remap.(k))
                  | _ -> map_sub rw e
                in
                Some (Let (s', Loop { l with gens = keep }, rw body))
              end
            end
          end
      | _ -> None);
  }

let rules = [ vertical; let_float; horizontal; dead_gen; dedup_gen ]

(** The fusion rule set with an explicitly threaded horizontal-fusion
    policy: [objective] installs the communication veto (cluster
    targets), [horizontal:false] removes horizontal fusion entirely so a
    caller can merge one chosen pair itself (the W-FUSION-MISSED lint).
    With neither, identical to {!rules}. *)
let rules_with ?objective ?on_reject ?(horizontal = true) () :
    Rewrite.rule list =
  [ vertical; let_float ]
  @ (if horizontal then [ horizontal_with ?objective ?on_reject () ] else [])
  @ [ dead_gen; dedup_gen ]

let run ?(trace = Rewrite.new_trace ()) e = Rewrite.fixpoint rules trace e
