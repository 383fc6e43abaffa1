open Ubpa_util
open Ubpa_sim

type input = { value : float; iterations : int; f : int }
type progress = { iteration : int; estimate : float; n_v : int }
type message = Estimate of float
type output = progress
type stimulus = Protocol.No_stimulus.t

type state = {
  iterations : int;
  f : int;
  mutable estimate : float;
  mutable iteration : int;
}

let name = "dolev-approximate-agreement"

let init ~self:_ ~round:_ ~index:_ { value; iterations; f } =
  { iterations; f; estimate = value; iteration = 0 }

let pp_message ppf (Estimate v) = Fmt.pf ppf "estimate(%g)" v

let compare_message (Estimate a) (Estimate b) = Float.compare a b
let equal_message a b = compare_message a b = 0
let encoded_bits = Protocol.structural_bits

let reduce ~f values =
  match values with
  | [] -> None
  | _ ->
      let sorted = List.sort Float.compare values in
      let n = List.length sorted in
      let discard = min f ((n - 1) / 2) in
      let kept =
        List.filteri (fun i _ -> i >= discard && i < n - discard) sorted
      in
      let lo = List.nth kept 0 in
      let hi = List.nth kept (List.length kept - 1) in
      Some ((lo +. hi) /. 2.)

let step ~self:_ ~round:_ ~stim:_ st ~inbox =
  if st.iteration = 0 then begin
    st.iteration <- 1;
    (st, [ (Envelope.Broadcast, Estimate st.estimate) ], Protocol.Continue)
  end
  else begin
    let values =
      List.fold_left
        (fun (seen, acc) (src, Estimate v) ->
          if Node_id.Set.mem src seen then (seen, acc)
          else (Node_id.Set.add src seen, v :: acc))
        (Node_id.Set.empty, []) inbox
      |> snd
    in
    let estimate =
      match reduce ~f:st.f values with None -> st.estimate | Some m -> m
    in
    st.estimate <- estimate;
    let out =
      { iteration = st.iteration; estimate; n_v = List.length values }
    in
    if st.iteration >= st.iterations then (st, [], Protocol.Stop out)
    else begin
      st.iteration <- st.iteration + 1;
      (st, [ (Envelope.Broadcast, Estimate estimate) ], Protocol.Deliver out)
    end
  end
