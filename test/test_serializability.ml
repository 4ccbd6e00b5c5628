(* Tests for the conflict-serializability checker. *)

open Objmodel
open Txn
open Core.Serializability

let oid = Oid.of_int
let tid = Txn_id.of_int
let acc o p v = { oid = oid o; page = p; version = v }

let is_serializable = function Serializable _ -> true | Cyclic _ -> false

(* The reference [edges] must equal list for list: a quadratic builder in
   which, per page, every reader scans the page's whole writer list for its
   wr edges and again for its next writer. *)
module PageMap = Map.Make (struct
  type t = Oid.t * int

  let compare (o1, p1) (o2, p2) =
    let c = Oid.compare o1 o2 in
    if c <> 0 then c else Int.compare p1 p2
end)

module EdgeSet = Set.Make (struct
  type t = Txn_id.t * Txn_id.t

  let compare (a1, b1) (a2, b2) =
    let c = Txn_id.compare a1 a2 in
    if c <> 0 then c else Txn_id.compare b1 b2
end)

let reference_edges roots =
  let writers = ref PageMap.empty in
  let readers = ref PageMap.empty in
  List.iter
    (fun r ->
      List.iter
        (fun a ->
          let key = (a.oid, a.page) in
          let cur = Option.value ~default:[] (PageMap.find_opt key !writers) in
          writers := PageMap.add key ((a.version, r.root) :: cur) !writers)
        r.writes;
      List.iter
        (fun a ->
          let key = (a.oid, a.page) in
          let cur = Option.value ~default:[] (PageMap.find_opt key !readers) in
          readers := PageMap.add key ((a.version, r.root) :: cur) !readers)
        r.reads)
    roots;
  let acc = ref EdgeSet.empty in
  let add a b = if not (Txn_id.equal a b) then acc := EdgeSet.add (a, b) !acc in
  PageMap.iter
    (fun key ws ->
      let ws = List.sort (fun (v1, _) (v2, _) -> Int.compare v1 v2) ws in
      let rec ww = function
        | (_, w1) :: ((_, w2) :: _ as rest) ->
            add w1 w2;
            ww rest
        | _ -> ()
      in
      ww ws;
      let rs = Option.value ~default:[] (PageMap.find_opt key !readers) in
      List.iter
        (fun (rv, reader) ->
          List.iter (fun (wv, writer) -> if wv = rv then add writer reader) ws;
          let next =
            List.fold_left
              (fun best (wv, writer) ->
                if wv > rv then
                  match best with
                  | Some (bv, _) when bv <= wv -> best
                  | _ -> Some (wv, writer)
                else best)
              None ws
          in
          match next with Some (_, writer) -> add reader writer | None -> ())
        rs)
    !writers;
  EdgeSet.elements !acc

(* A [Serializable] witness lists every root once and respects every edge;
   a [Cyclic] witness is a closed walk along edges. *)
let witness_ok history es = function
  | Serializable order ->
      let pos = Txn_id.Table.create 64 in
      List.iteri (fun i t -> Txn_id.Table.replace pos t i) order;
      List.sort Txn_id.compare order
      = List.sort_uniq Txn_id.compare (List.map (fun r -> r.root) history)
      && List.for_all (fun (a, b) -> Txn_id.Table.find pos a < Txn_id.Table.find pos b) es
  | Cyclic [] -> false
  | Cyclic (first :: _ as cycle) ->
      let rec closed = function
        | [ last ] -> List.mem (last, first) es
        | a :: (b :: _ as rest) -> List.mem (a, b) es && closed rest
        | [] -> false
      in
      closed cycle

let test_empty_history () =
  Alcotest.(check bool) "empty ok" true (is_serializable (check []))

let test_disjoint_roots () =
  let h =
    [
      { root = tid 1; reads = [ acc 1 0 0 ]; writes = [ acc 1 0 1 ] };
      { root = tid 2; reads = [ acc 2 0 0 ]; writes = [ acc 2 0 2 ] };
    ]
  in
  Alcotest.(check bool) "disjoint ok" true (is_serializable (check h));
  Alcotest.(check int) "no edges" 0 (List.length (edges h))

let test_ww_chain () =
  let h =
    [
      { root = tid 1; reads = []; writes = [ acc 1 0 1 ] };
      { root = tid 2; reads = []; writes = [ acc 1 0 2 ] };
      { root = tid 3; reads = []; writes = [ acc 1 0 3 ] };
    ]
  in
  Alcotest.(check (list (pair int int))) "chain edges" [ (1, 2); (2, 3) ]
    (List.map (fun (a, b) -> (Txn_id.to_int a, Txn_id.to_int b)) (edges h));
  match check h with
  | Serializable order ->
      Alcotest.(check (list int)) "topological order" [ 1; 2; 3 ]
        (List.map Txn_id.to_int order)
  | Cyclic _ -> Alcotest.fail "must be serializable"

let test_wr_edge () =
  let h =
    [
      { root = tid 1; reads = []; writes = [ acc 1 0 1 ] };
      { root = tid 2; reads = [ acc 1 0 1 ]; writes = [] };
    ]
  in
  Alcotest.(check (list (pair int int))) "wr edge" [ (1, 2) ]
    (List.map (fun (a, b) -> (Txn_id.to_int a, Txn_id.to_int b)) (edges h))

let test_rw_edge () =
  let h =
    [
      { root = tid 1; reads = [ acc 1 0 0 ]; writes = [] };
      { root = tid 2; reads = []; writes = [ acc 1 0 1 ] };
    ]
  in
  Alcotest.(check (list (pair int int))) "rw edge" [ (1, 2) ]
    (List.map (fun (a, b) -> (Txn_id.to_int a, Txn_id.to_int b)) (edges h))

let test_rw_skips_to_next_version_only () =
  (* Reader of v1 precedes the writer of v2 (the next version), and v2's
     writer precedes v3's; no direct edge reader -> v3 writer is required,
     but the transitive order must hold. *)
  let h =
    [
      { root = tid 1; reads = [ acc 1 0 1 ]; writes = [] };
      { root = tid 2; reads = []; writes = [ acc 1 0 2 ] };
      { root = tid 3; reads = []; writes = [ acc 1 0 3 ] };
      { root = tid 4; reads = []; writes = [ acc 1 0 1 ] };
    ]
  in
  match check h with
  | Serializable order ->
      let pos x = ref (-1) |> fun r ->
        List.iteri (fun i t -> if Txn_id.to_int t = x then r := i) order;
        !r
  in
      Alcotest.(check bool) "reader before next writer" true (pos 1 < pos 2);
      Alcotest.(check bool) "writer order" true (pos 2 < pos 3);
      Alcotest.(check bool) "v1 writer before reader" true (pos 4 < pos 1)
  | Cyclic _ -> Alcotest.fail "must be serializable"

let test_classic_cycle () =
  (* T1 reads x then writes y; T2 reads y(old) then writes x(next): the
     textbook non-serializable interleaving. *)
  let h =
    [
      { root = tid 1; reads = [ acc 1 0 0 ]; writes = [ acc 2 0 1 ] };
      { root = tid 2; reads = [ acc 2 0 0 ]; writes = [ acc 1 0 2 ] };
    ]
  in
  match check h with
  | Cyclic cycle -> Alcotest.(check bool) "cycle found" true (List.length cycle >= 2)
  | Serializable _ -> Alcotest.fail "expected cycle"

let test_self_access_no_edge () =
  let h = [ { root = tid 1; reads = [ acc 1 0 1 ]; writes = [ acc 1 0 1 ] } ] in
  Alcotest.(check int) "no self edges" 0 (List.length (edges h));
  Alcotest.(check bool) "ok" true (is_serializable (check h))

let test_witness_order_complete () =
  let h =
    [
      { root = tid 5; reads = []; writes = [ acc 1 0 1 ] };
      { root = tid 6; reads = []; writes = [] };
    ]
  in
  match check h with
  | Serializable order -> Alcotest.(check int) "all roots in order" 2 (List.length order)
  | Cyclic _ -> Alcotest.fail "serializable"

(* Cross-check the graph-based checker against brute force: a history is
   conflict-serializable iff some permutation of the roots respects every
   conflict edge. For <= 5 random roots the permutation space is tiny. *)
let qcheck_checker_matches_brute_force =
  let gen =
    QCheck.Gen.(
      let* n_roots = int_range 1 5 in
      let* accesses =
        list_size (int_range 0 12)
          (let* root = int_bound (n_roots - 1) in
           let* page = int_bound 2 in
           let* is_write = bool in
           let* observed = int_bound 12 in
           return (root, page, is_write, observed))
      in
      return (n_roots, accesses))
  in
  let build (n_roots, accesses) =
    (* Writes produce globally unique versions per page; reads observe an
       *arbitrary* one of that page's versions (or the initial 0), so both
       serializable and cyclic histories arise. *)
    let produced = Array.make 3 [ 0 ] in
    let next = ref 0 in
    let reads = Array.make n_roots [] and writes = Array.make n_roots [] in
    List.iter
      (fun (root, page, is_write, observed) ->
        if is_write then begin
          incr next;
          produced.(page) <- !next :: produced.(page);
          writes.(root) <- { oid = oid 0; page; version = !next } :: writes.(root)
        end
        else
          let versions = produced.(page) in
          let version = List.nth versions (observed mod List.length versions) in
          reads.(root) <- { oid = oid 0; page; version } :: reads.(root))
      accesses;
    List.init n_roots (fun i -> { root = tid i; reads = reads.(i); writes = writes.(i) })
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
          l
  in
  QCheck.Test.make ~name:"checker agrees with brute force" ~count:300
    (QCheck.make ~print:(fun _ -> "<history>") gen)
    (fun input ->
      let history = build input in
      let es = edges history in
      let roots = List.map (fun r -> r.root) history in
      let brute =
        List.exists
          (fun perm ->
            let pos x =
              let rec find i = function
                | [] -> -1
                | y :: rest -> if Txn_id.equal x y then i else find (i + 1) rest
              in
              find 0 perm
            in
            List.for_all (fun (a, b) -> pos a < pos b) es)
          (permutations roots)
      in
      let checker = match check history with Serializable _ -> true | Cyclic _ -> false in
      brute = checker)

let edge_pairs es = List.map (fun (a, b) -> (Txn_id.to_int a, Txn_id.to_int b)) es

let test_edges_corner_cases () =
  (* One page: roots 1 and 2 both write version 1 (a duplicate), 3 and 4
     read it, 5 reads the initial version 0, 6 reads version 1 and writes
     version 2, 7 writes version 3. Ties between the two writers of v1 go
     to the one logged last (2), as in the reference. *)
  let h =
    [
      { root = tid 1; reads = []; writes = [ acc 1 0 1 ] };
      { root = tid 2; reads = []; writes = [ acc 1 0 1 ] };
      { root = tid 3; reads = [ acc 1 0 1 ]; writes = [] };
      { root = tid 4; reads = [ acc 1 0 1 ]; writes = [] };
      { root = tid 5; reads = [ acc 1 0 0 ]; writes = [] };
      { root = tid 6; reads = [ acc 1 0 1 ]; writes = [ acc 1 0 2 ] };
      { root = tid 7; reads = []; writes = [ acc 1 0 3 ] };
    ]
  in
  let expected =
    [ (1, 3); (1, 4); (1, 6); (2, 1); (2, 3); (2, 4); (2, 6); (3, 6); (4, 6); (5, 2); (6, 7) ]
  in
  Alcotest.(check (list (pair int int))) "edges" expected (edge_pairs (edges h));
  Alcotest.(check (list (pair int int))) "reference" expected (edge_pairs (reference_edges h));
  Alcotest.(check bool) "witness" true (witness_ok h (edges h) (check h))

(* Random histories of up to 200 roots over 1-4 pages of two objects. Each
   step is one of: a write of a fresh version; a write that duplicates a
   version already written to the page; a burst of up to 20 roots reading
   one version; a read of the initial version 0; a read-modify-write of the
   page by one root. Reads pick any version of the page, so most such
   histories are cyclic. A [serial] history runs its steps root by root,
   writes only fresh versions and reads only the latest one, so it is
   serializable. *)
let gen_history =
  QCheck.Gen.(
    let* n_roots = int_range 1 200 in
    let* n_pages = int_range 1 4 in
    let* serial = bool in
    let* steps =
      list_size (int_range 0 300)
        (quad (int_bound 4) (int_bound (n_roots - 1)) (int_bound (n_pages - 1))
           (pair (int_bound 1000) (int_range 1 20)))
    in
    return (n_roots, serial, steps))

let build_history (n_roots, serial, steps) =
  let steps =
    if serial then List.stable_sort (fun (_, r1, _, _) (_, r2, _, _) -> Int.compare r1 r2) steps
    else steps
  in
  let produced = Array.make 4 [] and next = ref 0 in
  let reads = Array.make n_roots [] and writes = Array.make n_roots [] in
  let access p version = acc (p mod 2) (p / 2) version in
  let read root p v = reads.(root) <- access p v :: reads.(root) in
  let write root p v =
    produced.(p) <- v :: produced.(p);
    writes.(root) <- access p v :: writes.(root)
  in
  let fresh () =
    incr next;
    !next
  in
  let pick p k =
    match produced.(p) with
    | [] -> 0
    | v :: _ when serial -> v
    | vs -> List.nth vs (k mod List.length vs)
  in
  List.iter
    (fun (kind, root, p, (k, burst)) ->
      match (kind, serial) with
      | 0, _ | 1, true -> write root p (fresh ())
      | 1, false -> write root p (if produced.(p) = [] then fresh () else pick p k)
      | 2, false ->
          let v = pick p k in
          for j = 0 to burst - 1 do
            read ((root + j) mod n_roots) p v
          done
      | (2 | 3), true -> read root p (pick p k)
      | 3, false -> read root p 0
      | _ ->
          read root p (pick p k);
          write root p (fresh ()))
    steps;
  List.init n_roots (fun i -> { root = tid i; reads = reads.(i); writes = writes.(i) })

let qcheck_edges_match_reference =
  QCheck.Test.make ~name:"edges equal the reference; witnesses hold" ~count:300
    (QCheck.make
       ~print:(fun (n, serial, steps) ->
         Printf.sprintf "<%d roots, serial %b, %d steps>" n serial (List.length steps))
       gen_history)
    (fun ((_, serial, _) as input) ->
      let h = build_history input in
      let es = edges h in
      let verdict = check h in
      es = reference_edges h
      && witness_ok h es verdict
      && ((not serial) || is_serializable verdict))

(* Run [f] on a fresh fiber whose stack may not grow past [words]: a
   recursion as deep as the history raises [Stack_overflow]. *)
let with_stack_limit words f =
  let saved = Gc.get () in
  Gc.set { saved with Gc.stack_limit = words };
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Effect.Deep.match_with f () { retc = Fun.id; exnc = raise; effc = (fun _ -> None) })

let test_hot_page () =
  (* Writers 0..49_999 write versions 1..50_000 of one page; reader
     50_000 + i reads version i mod 50_000. Edges: 49_999 ww; 2 wr for each
     version 1..49_999 (version 0 has no writer); 1 rw per reader, since
     every version read has a successor. *)
  let writer i = { root = tid i; reads = []; writes = [ acc 0 0 (i + 1) ] } in
  let reader i = { root = tid (50_000 + i); reads = [ acc 0 0 (i mod 50_000) ]; writes = [] } in
  let h = List.init 50_000 writer @ List.init 100_000 reader in
  Alcotest.(check int) "edge count" (49_999 + (2 * 49_999) + 100_000) (List.length (edges h));
  match check h with
  | Serializable order -> Alcotest.(check int) "complete witness" 150_000 (List.length order)
  | Cyclic _ -> Alcotest.fail "must be serializable"

let test_deep_chain () =
  (* A 200k-root ww chain: the only witness is the chain itself, and the
     search must find it within a 64k-word (512 KiB) stack. *)
  let n = 200_000 in
  let h = List.init n (fun i -> { root = tid i; reads = []; writes = [ acc 0 0 (i + 1) ] }) in
  match with_stack_limit (1 lsl 16) (fun () -> check h) with
  | Serializable order ->
      Alcotest.(check bool) "chain order" true (List.map Txn_id.to_int order = List.init n Fun.id)
  | Cyclic _ -> Alcotest.fail "must be serializable"

(* [dedup_accesses] replaced a Set.Make over polymorphic [compare]; the
   old version is kept here as the reference. Small ranges force
   duplicates. *)
let dedup_reference accesses =
  let module S = Set.Make (struct
    type t = access

    let compare = compare
  end) in
  S.elements (S.of_list accesses)

let qcheck_dedup_matches_reference =
  let gen =
    QCheck.Gen.(
      list_size (0 -- 40)
        (map3 (fun o p v -> acc o p v) (0 -- 5) (0 -- 3) (0 -- 4)))
  in
  let print l =
    String.concat "; "
      (List.map (fun a -> Printf.sprintf "O%d.%d@%d" (Oid.to_int a.oid) a.page a.version) l)
  in
  QCheck.Test.make ~name:"dedup_accesses equals the Set.Make reference" ~count:500
    (QCheck.make ~print gen)
    (fun l -> dedup_accesses l = dedup_reference l)

let tests =
  [
    ( "serializability",
      [
        Alcotest.test_case "empty" `Quick test_empty_history;
        Alcotest.test_case "disjoint" `Quick test_disjoint_roots;
        Alcotest.test_case "ww chain" `Quick test_ww_chain;
        Alcotest.test_case "wr edge" `Quick test_wr_edge;
        Alcotest.test_case "rw edge" `Quick test_rw_edge;
        Alcotest.test_case "rw next version" `Quick test_rw_skips_to_next_version_only;
        Alcotest.test_case "classic cycle" `Quick test_classic_cycle;
        Alcotest.test_case "self access" `Quick test_self_access_no_edge;
        Alcotest.test_case "witness complete" `Quick test_witness_order_complete;
        QCheck_alcotest.to_alcotest qcheck_checker_matches_brute_force;
        Alcotest.test_case "edges corner cases" `Quick test_edges_corner_cases;
        QCheck_alcotest.to_alcotest qcheck_edges_match_reference;
        Alcotest.test_case "hot page edge count" `Quick test_hot_page;
        Alcotest.test_case "deep chain bounded stack" `Quick test_deep_chain;
        QCheck_alcotest.to_alcotest qcheck_dedup_matches_reference;
      ] );
  ]
