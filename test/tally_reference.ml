(* Executable spec of [Ubpa_util.Tally]: one (content, senders) list
   scanned linearly, the most recently first-seen content at the head.
   Every observation of the keyed tally must equal this one, order
   included — the order of [contents] and [meeting] becomes the order of a
   protocol's sends. *)

open Ubpa_util

type 'k t = {
  compare : 'k -> 'k -> int;
  mutable entries : ('k * Node_id.t list) list;
}

let create ~compare = { compare; entries = [] }
let same t k (k', _) = t.compare k k' = 0

let add t ~sender k =
  if List.exists (same t k) t.entries then
    t.entries <-
      List.map
        (fun ((k', ss) as e) ->
          if same t k e && not (List.exists (Node_id.equal sender) ss) then
            (k', sender :: ss)
          else e)
        t.entries
  else t.entries <- (k, [ sender ]) :: t.entries

let senders t k =
  match List.find_opt (same t k) t.entries with
  | Some (_, ss) -> List.sort Node_id.compare ss
  | None -> []

let count t k = List.length (senders t k)
let contents t = List.map fst t.entries

(* The highest count; among the contents that reach it, the smallest. *)
let max_by_count t =
  let best =
    List.fold_left (fun m (_, ss) -> max m (List.length ss)) 0 t.entries
  in
  List.filter (fun (_, ss) -> List.length ss = best) t.entries
  |> List.map fst |> List.sort t.compare
  |> function
  | [] -> None
  | k :: _ -> Some (k, best)

let meeting t ~threshold =
  List.filter_map
    (fun (k, ss) -> if threshold (List.length ss) then Some k else None)
    t.entries
