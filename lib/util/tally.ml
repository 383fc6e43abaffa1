module Make (K : Map.OrderedType) = struct
  module M = Map.Make (K)

  type key = K.t
  type entry = { key : K.t; senders : Bitset.t }

  type t = {
    index : Interner.t;
    mutable by_key : entry M.t;
    mutable recent : entry list;  (** newest content first *)
  }

  let create ~index () = { index; by_key = M.empty; recent = [] }

  let add_slot t ~slot k =
    match M.find k t.by_key with
    | e -> Bitset.add e.senders slot
    | exception Not_found ->
        let e = { key = k; senders = Interner.sender_set t.index } in
        Bitset.add e.senders slot;
        t.by_key <- M.add k e t.by_key;
        t.recent <- e :: t.recent

  let add t ~sender k = add_slot t ~slot:(Interner.slot t.index sender) k

  let count t k =
    match M.find k t.by_key with
    | e -> Bitset.count e.senders
    | exception Not_found -> 0

  let senders t k =
    match M.find k t.by_key with
    | exception Not_found -> []
    | e ->
        Bitset.fold e.senders ~init:[] ~f:(fun acc s ->
            Interner.extern t.index s :: acc)
        |> List.sort Node_id.compare

  let contents t = List.map (fun e -> e.key) t.recent

  let max_by_count t =
    let best acc e =
      let c = Bitset.count e.senders in
      match acc with
      | Some (k', c') when c < c' || (c = c' && K.compare e.key k' >= 0) -> acc
      | _ -> Some (e.key, c)
    in
    List.fold_left best None t.recent

  let meeting t ~threshold =
    List.filter_map
      (fun e -> if threshold (Bitset.count e.senders) then Some e.key else None)
      t.recent
end
