(** Order statistics and summaries used by experiment tables. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val median : float list -> float
(** Median (average of middle two for even length); 0 on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank method. *)

val min_max : float list -> float * float
(** Smallest and largest element. Raises [Invalid_argument] on []. *)

val range : float list -> float
(** [max - min]; 0 on lists shorter than 2. *)

val sum : float list -> float

val histogram : buckets:int -> float list -> (float * float * int) list
(** [histogram ~buckets xs] is a list of [(lo, hi, count)] rows covering
    [\[min xs, max xs\]] with [buckets] equal-width buckets. *)
