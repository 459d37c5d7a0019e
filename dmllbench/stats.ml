(* The median of layer samples, and the correctness tally of a run's
   jobs. *)

module V = Dmll_interp.Value

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median (xs : float list) : float =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

(* Relative tolerance for the documented reassociated float merges: a
   parallel target that splits a float reduction into chunks and merges
   the partials sums in another order than the interpreter. *)
let merge_eps = 1e-6

type verdict = Exact | Within_merge_tolerance | Mismatch

let check ~(reassociates : bool) ~(reference : V.t) (v : V.t) : verdict =
  if V.equal reference v then Exact
  else if reassociates && V.approx_equal ~eps:merge_eps reference v then
    Within_merge_tolerance
  else Mismatch

let accepted = function Exact | Within_merge_tolerance -> true | Mismatch -> false

(* One workload's job ledger.  A job fails when it raises or when any
   value it produced is rejected by [check]; only completed jobs
   contribute latency samples. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable times : float list;  (** completed jobs' seconds, [Calib.scale]d *)
  mutable wall : float list;  (** the same jobs' wall seconds *)
  mutable elements : int;  (** input elements of completed jobs *)
  mutable first_error : string option;
}

let tally () =
  { attempted = 0; failed = 0; times = []; wall = []; elements = 0; first_error = None }

let note_failure t msg =
  t.failed <- t.failed + 1;
  if t.first_error = None then t.first_error <- Some msg

(* [job ()] returns its wall seconds and the verdict of every value it
   produced. *)
let record (t : tally) ~(elements : int)
    (job : unit -> float * (string * verdict) list) : unit =
  t.attempted <- t.attempted + 1;
  match job () with
  | seconds, verdicts -> (
      match List.find_opt (fun (_, v) -> not (accepted v)) verdicts with
      | None ->
          t.times <- Calib.scale seconds :: t.times;
          t.wall <- seconds :: t.wall;
          t.elements <- t.elements + elements
      | Some (what, _) -> note_failure t (what ^ ": value differs from reference"))
  | exception e -> note_failure t ("raised " ^ Printexc.to_string e)
