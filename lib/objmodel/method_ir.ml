type slot = int

type stmt =
  | Read of Attribute.id
  | Write of Attribute.id
  | Invoke of { slot : slot; meth : int }
  | If of { prob_then : float; then_ : stmt list; else_ : stmt list }
  | Loop of { count : int; body : stmt list }

type commutativity = Non_commuting | Increment | Decrement | Insert

type t = { name : string; body : stmt list; commutativity : commutativity }

let make ~name ~body = { name; body; commutativity = Non_commuting }
let make_commuting ~name ~commutativity ~body = { name; body; commutativity }

let commutes t = t.commutativity <> Non_commuting

let escrow_delta t =
  match t.commutativity with
  | Non_commuting -> 0
  | Increment | Insert -> 1
  | Decrement -> -1

let pp_commutativity fmt = function
  | Non_commuting -> Format.pp_print_string fmt "non-commuting"
  | Increment -> Format.pp_print_string fmt "increment"
  | Decrement -> Format.pp_print_string fmt "decrement"
  | Insert -> Format.pp_print_string fmt "insert"

let rec max_slot_block body =
  List.fold_left
    (fun acc stmt ->
      match stmt with
      | Read _ | Write _ -> acc
      | Invoke { slot; _ } -> max acc slot
      | If { then_; else_; _ } -> max acc (max (max_slot_block then_) (max_slot_block else_))
      | Loop { body; _ } -> max acc (max_slot_block body))
    (-1) body

let max_slot t = max_slot_block t.body

let rec count_block body =
  List.fold_left
    (fun acc stmt ->
      match stmt with
      | Read _ | Write _ | Invoke _ -> acc + 1
      | If { then_; else_; _ } -> acc + 1 + count_block then_ + count_block else_
      | Loop { body; _ } -> acc + 1 + count_block body)
    0 body

let statement_count t = count_block t.body

type 'a handler = {
  on_read : Attribute.id -> unit;
  on_write : Attribute.id -> unit;
  on_invoke : slot -> int -> unit;
  choose : float -> bool;
}

let interp t h =
  let rec exec_block body = List.iter exec body
  and exec = function
    | Read a -> h.on_read a
    | Write a -> h.on_write a
    | Invoke { slot; meth } -> h.on_invoke slot meth
    | If { prob_then; then_; else_ } ->
        if h.choose prob_then then exec_block then_ else exec_block else_
    | Loop { count; body } ->
        for _ = 1 to count do
          exec_block body
        done
  in
  exec_block t.body

let rec pp_block fmt body =
  List.iter
    (fun stmt ->
      match stmt with
      | Read a -> Format.fprintf fmt "read a%d; " a
      | Write a -> Format.fprintf fmt "write a%d; " a
      | Invoke { slot; meth } -> Format.fprintf fmt "invoke s%d.m%d; " slot meth
      | If { prob_then; then_; else_ } ->
          Format.fprintf fmt "if(%.2f){ %a} else { %a}; " prob_then pp_block then_ pp_block else_
      | Loop { count; body } -> Format.fprintf fmt "loop(%d){ %a}; " count pp_block body)
    body

let pp fmt t =
  match t.commutativity with
  | Non_commuting -> Format.fprintf fmt "method %s { %a}" t.name pp_block t.body
  | c -> Format.fprintf fmt "method %s [%a] { %a}" t.name pp_commutativity c pp_block t.body
