(** Checkpoint store for iterative programs (DESIGN.md §11).

    Lineage recovery (DESIGN.md §9) recomputes lost chunks from scratch —
    fine for a one-shot multiloop, ruinous for the iterative apps where a
    late-iteration crash replays the whole job.  A checkpoint bounds that
    work: at a configurable cadence the runtime snapshots every live spine
    binding (the distributed-array partitions) together with the
    iterative-driver state (iteration counter, accumulators), each chunk
    guarded by a content checksum verified on restore.  On a crash the
    executor prices restore-from-checkpoint against lineage replay
    ({!write_seconds} / {!restore_seconds} reuse {!Dmll_analysis.Comm}'s
    volume terms) and takes the cheaper path, logging the decision.

    Snapshots are deep copies: later loop iterations mutate arrays in
    place, and a checkpoint that aliases live data is just a dangling
    pointer with extra steps.  Checksums are FNV-1a over the marshaled
    chunk contents, so a corrupted (or accidentally shared) snapshot is
    rejected at restore time instead of silently resurrecting bad data. *)

module V = Dmll_interp.Value
module Comm = Dmll_analysis.Comm
module Stencil = Dmll_analysis.Stencil
module M = Dmll_machine.Machine

(* ------------------------------------------------------------------ *)
(* Checksums and deep copies                                           *)
(* ------------------------------------------------------------------ *)

(* FNV-1a, 64-bit: tiny, dependency-free, and plenty to catch torn or
   bit-flipped snapshot chunks (this is an integrity check, not crypto). *)
let fnv1a (s : string) : int64 =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

(* Values are pure data (no closures), so Marshal gives both a canonical
   byte image for checksumming and a structural deep copy. *)
let value_blob (v : V.t) : string = Marshal.to_string v []
let copy_value (v : V.t) : V.t = Marshal.from_string (value_blob v) 0
let value_bytes (v : V.t) : int = String.length (value_blob v)

type chunk_sum = { range : Chunk.range; sum : int64 }

(* Array payloads are checksummed per partition-sized chunk — the unit
   that moves on restore — so a single torn chunk is pinpointed without
   rehashing the whole snapshot.  Scalar values are one chunk. *)
let chunk_sums ~(chunks : int) (v : V.t) : chunk_sum list =
  let of_sub sub n =
    Chunk.split ~k:(Stdlib.max 1 chunks) n
    |> List.map (fun (r : Chunk.range) ->
           { range = r; sum = fnv1a (sub r.Chunk.lo (Chunk.size r)) })
  in
  match v with
  | V.Varr (V.Fa a) ->
      of_sub (fun lo len -> Marshal.to_string (Array.sub a lo len) []) (Array.length a)
  | V.Varr (V.Ia a) ->
      of_sub (fun lo len -> Marshal.to_string (Array.sub a lo len) []) (Array.length a)
  | V.Varr (V.Ga a) ->
      of_sub (fun lo len -> Marshal.to_string (Array.sub a lo len) []) (Array.length a)
  | v -> [ { range = { Chunk.lo = 0; hi = 1 }; sum = fnv1a (value_blob v) } ]

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type entry = { value : V.t; bytes : int; sums : chunk_sum list }

type snapshot = {
  at_loop : int;  (** spine loop number the snapshot was taken after *)
  bindings : (string * entry) list;
      (** live spine bindings: distributed partitions and scalars alike *)
  driver : (string * V.t) list;
      (** iterative-driver state — iteration counter, accumulators —
          that lives outside the spine environment *)
}

let snapshot_bytes (s : snapshot) : float =
  List.fold_left (fun acc (_, e) -> acc +. float_of_int e.bytes) 0.0 s.bindings

(** Re-hash every chunk of every entry and compare against the sums taken
    at record time.  [Error] names the first mismatching binding/range. *)
let verify (s : snapshot) : (unit, string) result =
  let check (name, e) =
    let fresh = chunk_sums ~chunks:(List.length e.sums) e.value in
    if List.length fresh <> List.length e.sums then
      Some (Printf.sprintf "%s: chunk count changed" name)
    else
      List.fold_left2
        (fun acc (a : chunk_sum) (b : chunk_sum) ->
          match acc with
          | Some _ -> acc
          | None ->
              if a.range = b.range && Int64.equal a.sum b.sum then None
              else
                Some
                  (Printf.sprintf "%s: checksum mismatch in [%d,%d)" name
                     b.range.Chunk.lo b.range.Chunk.hi))
        None fresh e.sums
  in
  match List.find_map check s.bindings with
  | None -> Ok ()
  | Some msg -> Error ("checkpoint corrupt: " ^ msg)

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

type choice = Restore | Replay

let choice_to_string = function Restore -> "restore" | Replay -> "replay"

type decision = {
  decided_at_loop : int;
  chosen : choice;
  restore_cost : float;  (** predicted seconds for checkpoint restore *)
  replay_cost : float;  (** predicted seconds for lineage replay *)
}

type t = {
  cadence : int;  (** snapshot every [cadence] loops; [<= 0] disables *)
  mutable latest : snapshot option;
  mutable taken : int;
  mutable written_bytes : float;
  mutable decisions : decision list;  (** newest first *)
}

let create ~(cadence : int) : t =
  { cadence; latest = None; taken = 0; written_bytes = 0.0; decisions = [] }

let enabled (t : t) = t.cadence > 0
let due (t : t) ~(loop : int) = enabled t && loop mod t.cadence = 0
let latest (t : t) = t.latest
let taken (t : t) = t.taken
let written_bytes (t : t) = t.written_bytes
let decisions (t : t) = List.rev t.decisions

(** Snapshot the given bindings (deep-copied, chunk-checksummed) as the
    new latest checkpoint.  [chunks] should be the live node count so
    checksum granularity matches the unit of restore traffic. *)
let record (t : t) ~(at_loop : int) ~(chunks : int)
    ~(bindings : (string * V.t) list) ~(driver : (string * V.t) list) : snapshot
    =
  let bindings =
    List.map
      (fun (name, v) ->
        let copy = copy_value v in
        ( name,
          { value = copy; bytes = value_bytes copy; sums = chunk_sums ~chunks copy }
        ))
      bindings
  in
  let s = { at_loop; bindings; driver = List.map (fun (k, v) -> (k, copy_value v)) driver } in
  t.latest <- Some s;
  t.taken <- t.taken + 1;
  t.written_bytes <- t.written_bytes +. snapshot_bytes s;
  s

type restore_result =
  | Available of snapshot  (** latest snapshot, checksums verified *)
  | Corrupt of string  (** a checksum failed: fall back to lineage *)
  | None_taken

(** The latest snapshot, verified.  A corrupt checkpoint is reported, not
    returned — the caller falls back to lineage replay, which needs no
    stored bytes at all. *)
let restore (t : t) : restore_result =
  match t.latest with
  | None -> None_taken
  | Some s -> ( match verify s with Ok () -> Available s | Error m -> Corrupt m)

(* ------------------------------------------------------------------ *)
(* Crash-safe snapshot files (DESIGN.md §16)                           *)
(* ------------------------------------------------------------------ *)

(* Persistence protocol: marshal the snapshot behind a magic header into
   "<dir>/ckpt-NNNNNN.snap.tmp", fsync the file, rename(2) it to its
   final ".snap" name, then fsync the directory.  The rename is the
   commit point — a worker (or the whole supervisor) dying at any moment
   leaves either the previous complete snapshot or a stray ".tmp" that
   {!latest_file} never considers, so a restore can never read a torn
   image.  The checksums inside the snapshot still guard against storage
   bit-rot on top. *)

let magic = "DMLLCKPT1"
let snap_name at_loop = Printf.sprintf "ckpt-%06d.snap" at_loop

let write_file ~(dir : string) (s : snapshot) : string =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let final = Filename.concat dir (snap_name s.at_loop) in
  let tmp = final ^ ".tmp" in
  let payload = magic ^ Marshal.to_string s [] in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length payload in
      let written = ref 0 in
      while !written < n do
        written := !written + Unix.write_substring fd payload !written (n - !written)
      done;
      Unix.fsync fd);
  Unix.rename tmp final;
  (match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close dfd with Unix.Unix_error _ -> ())
        (fun () -> try Unix.fsync dfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ());
  final

let read_file (path : string) : restore_result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error m -> Corrupt m
  | raw -> (
      let mlen = String.length magic in
      if String.length raw < mlen || not (String.equal (String.sub raw 0 mlen) magic)
      then Corrupt (path ^ ": bad or truncated snapshot header")
      else
        match
          (Marshal.from_string (String.sub raw mlen (String.length raw - mlen)) 0
            : snapshot)
        with
        | exception _ -> Corrupt (path ^ ": undecodable snapshot image")
        | s -> ( match verify s with Ok () -> Available s | Error m -> Corrupt m))

(* Highest-numbered committed snapshot; the zero-padded loop number makes
   lexicographic order numeric.  ".tmp" leftovers are invisible here. *)
let latest_file ~(dir : string) : string option =
  match Sys.readdir dir with
  | exception Sys_error _ -> None
  | entries -> (
      Array.to_list entries
      |> List.filter (fun f -> Filename.check_suffix f ".snap")
      |> List.sort (fun a b -> String.compare b a)
      |> function [] -> None | f :: _ -> Some (Filename.concat dir f))

let record_decision (t : t) ~(decided_at_loop : int) ~(restore_cost : float)
    ~(replay_cost : float) : choice =
  let chosen = if restore_cost <= replay_cost then Restore else Replay in
  t.decisions <-
    { decided_at_loop; chosen; restore_cost; replay_cost } :: t.decisions;
  chosen

(* ------------------------------------------------------------------ *)
(* Cost model                                                          *)
(* ------------------------------------------------------------------ *)

(* The synthetic Comm term that prices snapshot movement: the snapshot is
   one opaque collection, and restore ships the lost share of it — the
   checkpoint path speaks the same volume language as the comm analysis
   rather than inventing a parallel cost model. *)
let snapshot_term : Comm.term =
  { Comm.kind = Comm.Broadcast;
    payload = Comm.Whole (Stencil.Tinput "__checkpoint__");
    note = "checkpoint image";
  }

let snapshot_resolver ~(bytes : float) : Comm.resolver =
  { Comm.collection_bytes = (fun _ -> bytes);
    elem_bytes = (fun _ -> 8.0);
    init_bytes = (fun _ -> 0.0);
  }

(** Simulated seconds to write a snapshot of [bytes]: every live node
    serializes its share and streams it to local stable storage
    concurrently, so the per-node share bounds the phase. *)
let write_seconds ~(cluster : M.cluster) ~(nodes : int) ~(bytes : float) :
    float =
  let share =
    Comm.term_bytes ~nodes (snapshot_resolver ~bytes) snapshot_term
    /. float_of_int (Stdlib.max 1 nodes)
  in
  (share /. (cluster.M.ser_gbs *. 1e9)) +. (share /. (cluster.M.disk_gbs *. 1e9))

(** Simulated seconds to restore the [lost_nodes] share of a snapshot of
    [bytes]: surviving peers read the lost partitions back from stable
    storage and ship them across the network to the nodes taking over. *)
let restore_seconds ~(cluster : M.cluster) ~(nodes : int) ~(lost_nodes : int)
    ~(bytes : float) : float =
  let n = Stdlib.max 1 nodes in
  let lost =
    Comm.term_bytes ~nodes:n (snapshot_resolver ~bytes) snapshot_term
    *. float_of_int lost_nodes /. float_of_int n
  in
  let lat_s = cluster.M.net_lat_us *. 1e-6 in
  (lost /. (cluster.M.disk_gbs *. 1e9))
  +. (lost /. (cluster.M.ser_gbs *. 1e9))
  +. (lost /. (cluster.M.net_bw_gbs *. 1e9))
  +. (float_of_int (Stdlib.max 1 lost_nodes) *. lat_s)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let decisions_to_json (t : t) : string =
  let one (d : decision) =
    Printf.sprintf
      "{\"at_loop\": %d, \"chosen\": \"%s\", \"restore_cost_s\": %.6g, \
       \"replay_cost_s\": %.6g}"
      d.decided_at_loop
      (choice_to_string d.chosen)
      d.restore_cost d.replay_cost
  in
  "[" ^ String.concat ", " (List.map one (decisions t)) ^ "]"
