open Ubpa_util
open Ubpa_sim
module Int_set = Set.Make (Int)

type output = { names : (Node_id.t * int) list; my_name : int }
type message = Init | Echo of Node_id.t | Terminate of int
type input = unit
type stimulus = Protocol.No_stimulus.t

module Id_tally = Tally.Make (Node_id)
module Int_tally = Tally.Make (Int)

type state = {
  self : Node_id.t;
  index : Interner.t;  (** the run's sender index, shared *)
  mutable local_round : int;
  mutable heard_from : Node_id.Set.t;
  mutable s : Node_id.Set.t;  (** the growing set of announced identifiers *)
  mutable last_change : int;  (** last local round in which [s] grew *)
  mutable relayed_terminates : Int_set.t;  (** k values already relayed *)
}

let name = "renaming"

let init ~self ~round:_ ~index () =
  {
    self;
    index;
    local_round = 0;
    heard_from = Node_id.Set.empty;
    s = Node_id.Set.empty;
    last_change = 0;
    relayed_terminates = Int_set.empty;
  }

let pp_message ppf = function
  | Init -> Fmt.string ppf "init"
  | Echo p -> Fmt.pf ppf "echo(%a)" Node_id.pp p
  | Terminate k -> Fmt.pf ppf "terminate(%d)" k

(* Ground constructors (ints and node ids only): the structural order is
   already the right one. *)
include Protocol.Structural (struct
  type t = message
end)

let ranks s =
  List.mapi (fun i p -> (p, i + 1)) (Node_id.Set.elements s)

let step ~self:_ ~round:_ ~stim:_ st ~inbox =
  st.local_round <- st.local_round + 1;
  List.iter
    (fun (src, _) -> st.heard_from <- Node_id.Set.add src st.heard_from)
    inbox;
  let n_v = Node_id.Set.cardinal st.heard_from in
  match st.local_round with
  | 1 -> (st, [ (Envelope.Broadcast, Init) ], Protocol.Continue)
  | 2 ->
      let sends =
        List.filter_map
          (fun (src, msg) ->
            match msg with
            | Init -> Some (Envelope.Broadcast, Echo src)
            | Echo _ | Terminate _ -> None)
          inbox
      in
      (st, sends, Protocol.Continue)
  | r ->
      let echo_tally = Id_tally.create ~index:st.index () in
      let term_tally = Int_tally.create ~index:st.index () in
      List.iter
        (fun (src, msg) ->
          match msg with
          | Echo p -> Id_tally.add echo_tally ~sender:src p
          | Terminate k -> Int_tally.add term_tally ~sender:src k
          | Init -> ())
        inbox;
      let m = ref [] in
      let fresh p = not (Node_id.Set.mem p st.s) in
      (* Identifier echoes, reliable-broadcast style. *)
      List.iter
        (fun p ->
          if fresh p then m := Echo p :: !m)
        (Id_tally.meeting echo_tally ~threshold:(fun count ->
             Threshold.ge_third ~count ~of_:n_v));
      let adds =
        Id_tally.meeting echo_tally ~threshold:(fun count ->
            Threshold.ge_two_thirds ~count ~of_:n_v)
        |> List.filter fresh
      in
      if adds <> [] then begin
        List.iter (fun p -> st.s <- Node_id.Set.add p st.s) adds;
        st.last_change <- r
      end;
      (* Stability vote: S unchanged through rounds r-1 and r. *)
      if
        r - st.last_change >= 2
        && not (Int_set.mem (r - 1) st.relayed_terminates)
      then begin
        st.relayed_terminates <- Int_set.add (r - 1) st.relayed_terminates;
        m := Terminate (r - 1) :: !m
      end;
      (* Relay terminate votes past n_v/3. *)
      List.iter
        (fun k ->
          if not (Int_set.mem k st.relayed_terminates) then begin
            st.relayed_terminates <- Int_set.add k st.relayed_terminates;
            m := Terminate k :: !m
          end)
        (Int_tally.meeting term_tally ~threshold:(fun count ->
             Threshold.ge_third ~count ~of_:n_v));
      let sends = List.map (fun msg -> (Envelope.Broadcast, msg)) !m in
      (* Quorum of terminate votes: output the ranks. *)
      let decided =
        Int_tally.meeting term_tally ~threshold:(fun count ->
            Threshold.ge_two_thirds ~count ~of_:n_v)
        <> []
      in
      if decided then begin
        let names = ranks st.s in
        let my_name =
          match List.assoc_opt st.self names with Some i -> i | None -> 0
        in
        (st, sends, Protocol.Stop { names; my_name })
      end
      else (st, sends, Protocol.Continue)
