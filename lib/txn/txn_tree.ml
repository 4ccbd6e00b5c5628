type status = Active | Precommitted | Committed | Aborted

type record = {
  parent : Txn_id.t option;
  root : Txn_id.t;
  node : int;
  depth : int;
  mutable status : status;
  mutable children : Txn_id.t list;  (* reverse creation order *)
}

type t = { mutable next : int; table : record Txn_id.Slab.t }

let create () =
  let dummy =
    { parent = None; root = Txn_id.of_int 0; node = -1; depth = 0; status = Aborted;
      children = [] }
  in
  { next = 0; table = Txn_id.Slab.create ~dummy }

let fresh t =
  let id = Txn_id.of_int t.next in
  t.next <- t.next + 1;
  id

let get t id =
  match Txn_id.Slab.get t.table id with
  | r -> r
  | exception Not_found ->
      invalid_arg (Format.asprintf "Txn_tree: unknown transaction %a" Txn_id.pp id)

let create_root t ~node =
  let id = fresh t in
  Txn_id.Slab.replace t.table id
    { parent = None; root = id; node; depth = 0; status = Active; children = [] };
  id

let create_child ?node t ~parent =
  let p = get t parent in
  if p.status <> Active then
    invalid_arg
      (Format.asprintf "Txn_tree.create_child: parent %a is not active" Txn_id.pp parent);
  let id = fresh t in
  Txn_id.Slab.replace t.table id
    {
      parent = Some parent;
      root = p.root;
      node = Option.value node ~default:p.node;
      depth = p.depth + 1;
      status = Active;
      children = [];
    };
  p.children <- id :: p.children;
  id

let parent t id = (get t id).parent
let root_of t id = (get t id).root
let node_of t id = (get t id).node
let depth t id = (get t id).depth
let status t id = (get t id).status
let set_status t id s = (get t id).status <- s
let is_root t id = (get t id).parent = None
let same_family t a b = Txn_id.equal (root_of t a) (root_of t b)

let is_strict_ancestor t ~ancestor x =
  let rec climb cur =
    match (get t cur).parent with
    | None -> false
    | Some p -> Txn_id.equal p ancestor || climb p
  in
  climb x

let is_ancestor_or_self t ~ancestor x =
  Txn_id.equal ancestor x || is_strict_ancestor t ~ancestor x

let children t id = List.rev (get t id).children

let family_size t root =
  let rec count id = List.fold_left (fun acc c -> acc + count c) 1 (get t id).children in
  count root

let count t = t.next

let forget_family t root =
  (* Ids are never reused ([next] keeps counting), so dropping the records
     frees their memory without weakening the no-reuse fence. *)
  let rec drop id =
    match Txn_id.Slab.get t.table id with
    | exception Not_found -> ()
    | r ->
        List.iter drop r.children;
        Txn_id.Slab.remove t.table id
  in
  drop root

let capacity t = Txn_id.Slab.capacity t.table
